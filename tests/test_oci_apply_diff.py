"""Tests for layer application, flattening, and filesystem diffs."""

from hypothesis import given
from hypothesis import strategies as st

from repro.oci import Layer, LayerEntry, apply_layer, diff_filesystems, flatten_layers
from repro.oci.apply import _LayerApplier, flatten_memo_clear
from repro.oci.diff import layer_from_tree
from repro.vfs import InlineContent, VirtualFilesystem


def _fs_with(files):
    fs = VirtualFilesystem()
    for path, data in files.items():
        fs.write_file(path, data, create_parents=True)
    return fs


class TestApply:
    def test_apply_files_and_dirs(self):
        layer = Layer()
        layer.add(LayerEntry.directory("/opt/app"))
        layer.add(LayerEntry.file("/opt/app/bin", InlineContent(b"b"), mode=0o755))
        fs = apply_layer(VirtualFilesystem(), layer)
        assert fs.read_file("/opt/app/bin") == b"b"
        assert fs.get_node("/opt/app/bin").mode == 0o755

    def test_whiteout_removes(self):
        fs = _fs_with({"/etc/conf": "x"})
        apply_layer(fs, Layer().add(LayerEntry.whiteout("/etc/conf")))
        assert not fs.exists("/etc/conf")

    def test_whiteout_removes_subtree(self):
        fs = _fs_with({"/d/a": "1", "/d/b/c": "2"})
        apply_layer(fs, Layer().add(LayerEntry.whiteout("/d")))
        assert not fs.exists("/d")

    def test_whiteout_missing_is_noop(self):
        fs = VirtualFilesystem()
        apply_layer(fs, Layer().add(LayerEntry.whiteout("/ghost")))

    def test_opaque_clears_directory(self):
        fs = _fs_with({"/cache/a": "1", "/cache/b": "2"})
        apply_layer(fs, Layer().add(LayerEntry.opaque("/cache")))
        assert fs.is_dir("/cache")
        assert fs.listdir("/cache") == []

    def test_file_replaces_directory(self):
        fs = _fs_with({"/thing/inner": "x"})
        apply_layer(fs, Layer().add(LayerEntry.file("/thing", InlineContent(b"now-a-file"))))
        assert fs.read_file("/thing") == b"now-a-file"

    def test_symlink_replaces_file(self):
        fs = _fs_with({"/f": "x", "/target": "t"})
        apply_layer(fs, Layer().add(LayerEntry.symlink("/f", "/target")))
        assert fs.readlink("/f") == "/target"

    def test_later_layer_shadows_earlier(self):
        l1 = Layer().add(LayerEntry.file("/f", InlineContent(b"one")))
        l2 = Layer().add(LayerEntry.file("/f", InlineContent(b"two")))
        fs = flatten_layers([l1, l2])
        assert fs.read_file("/f") == b"two"


class TestFlattenMemo:
    def test_new_top_layer_applies_only_its_own_entries(self, monkeypatch):
        base = Layer()
        base.add(LayerEntry.directory("/opt"))
        for i in range(499):
            base.add(LayerEntry.file(f"/opt/f{i:03d}", InlineContent(b"z")))
        top = Layer()
        top.add(LayerEntry.file("/opt/f000", InlineContent(b"new")))
        top.add(LayerEntry.whiteout("/opt/f001"))
        top.add(LayerEntry.file("/etc/conf", InlineContent(b"c")))
        flatten_memo_clear()
        flatten_layers([base])
        applied = []
        apply_entry = _LayerApplier.apply_entry

        def counted(self, entry):
            applied.append(entry)
            return apply_entry(self, entry)

        monkeypatch.setattr(_LayerApplier, "apply_entry", counted)
        fs = flatten_layers([base, top])
        assert len(applied) == len(top.entries)
        assert fs.read_file("/opt/f000") == b"new"
        assert not fs.exists("/opt/f001")
        assert fs.read_file("/opt/f002") == b"z"


class TestDiff:
    def test_identical_is_empty(self):
        a = _fs_with({"/x": "1"})
        b = a.clone()
        assert len(diff_filesystems(a, b)) == 0

    def test_added_file(self):
        a = _fs_with({"/x": "1"})
        b = a.clone()
        b.write_file("/y", "2")
        layer = diff_filesystems(a, b)
        assert layer.paths() == ["/y"]

    def test_changed_content(self):
        a = _fs_with({"/x": "1"})
        b = a.clone()
        b.write_file("/x", "CHANGED")
        layer = diff_filesystems(a, b)
        assert layer.paths() == ["/x"]
        assert layer.entries[0].content.read() == b"CHANGED"

    def test_changed_mode_only(self):
        a = _fs_with({"/x": "1"})
        b = a.clone()
        b.chmod("/x", 0o755)
        layer = diff_filesystems(a, b)
        assert layer.paths() == ["/x"]

    def test_removed_file_becomes_whiteout(self):
        a = _fs_with({"/x": "1", "/keep": "k"})
        b = a.clone()
        b.remove("/x")
        layer = diff_filesystems(a, b)
        assert layer.entries[0].kind == "whiteout"
        assert layer.entries[0].path == "/x"

    def test_removed_tree_single_whiteout(self):
        a = _fs_with({"/d/a": "1", "/d/sub/b": "2"})
        b = a.clone()
        b.remove("/d", recursive=True)
        layer = diff_filesystems(a, b)
        whiteouts = [e for e in layer if e.kind == "whiteout"]
        assert [e.path for e in whiteouts] == ["/d"]

    def test_type_change_file_to_symlink(self):
        a = _fs_with({"/x": "1"})
        b = a.clone()
        b.remove("/x")
        b.symlink("/elsewhere", "/x")
        layer = diff_filesystems(a, b)
        kinds = {e.path: e.kind for e in layer}
        assert kinds["/x"] == "symlink"

    def test_layer_from_tree_captures_everything(self):
        fs = _fs_with({"/a/f": "1", "/b/g": "2"})
        fs.symlink("/a/f", "/b/l")
        layer = layer_from_tree(fs)
        assert set(layer.paths()) == {"/a", "/a/f", "/b", "/b/g", "/b/l"}


_paths = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3).map(lambda s: "/" + s),
    min_size=0,
    max_size=6,
    unique=True,
)


class TestDiffApplyProperty:
    @given(_paths, _paths, st.data())
    def test_apply_diff_reconstructs(self, base_paths, new_paths, data):
        """fundamental invariant: apply(base, diff(base, new)) == new."""
        base = VirtualFilesystem()
        for p in base_paths:
            base.write_file(p, data.draw(st.binary(max_size=8)), create_parents=True)
        new = VirtualFilesystem()
        for p in new_paths:
            new.write_file(p, data.draw(st.binary(max_size=8)), create_parents=True)

        layer = diff_filesystems(base, new)
        rebuilt = apply_layer(base.clone(), layer)

        assert dict(
            (p, n.content.digest) for p, n in rebuilt.iter_files()
        ) == dict((p, n.content.digest) for p, n in new.iter_files())
        # And the diff of the reconstruction against the target is empty.
        assert len(diff_filesystems(rebuilt, new)) == 0
