"""Unit tests for the virtual filesystem."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.vfs import (
    Directory,
    InlineContent,
    NotFoundError,
    RegularFile,
    Symlink,
    SymlinkLoopError,
    SyntheticContent,
    VfsError,
    VirtualFilesystem,
)
from repro.vfs.errors import FileExistsVfsError, IsADirectoryVfsError, NotADirectoryVfsError


@pytest.fixture
def fs():
    return VirtualFilesystem()


class TestBasicOps:
    def test_root_exists(self, fs):
        assert fs.exists("/")
        assert fs.is_dir("/")

    def test_write_read_file(self, fs):
        fs.write_file("/hello.txt", "hi", create_parents=True)
        assert fs.read_text("/hello.txt") == "hi"
        assert fs.is_file("/hello.txt")

    def test_write_bytes(self, fs):
        fs.write_file("/b.bin", b"\x00\x01", create_parents=True)
        assert fs.read_file("/b.bin") == b"\x00\x01"

    def test_write_without_parent_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.write_file("/no/such/dir/f", "x")

    def test_write_with_create_parents(self, fs):
        fs.write_file("/a/b/c/f", "x", create_parents=True)
        assert fs.is_dir("/a/b/c")
        assert fs.read_text("/a/b/c/f") == "x"

    def test_mkdir(self, fs):
        fs.mkdir("/opt")
        assert fs.is_dir("/opt")

    def test_mkdir_existing_raises(self, fs):
        fs.mkdir("/opt")
        with pytest.raises(FileExistsVfsError):
            fs.mkdir("/opt")

    def test_mkdir_exist_ok(self, fs):
        fs.mkdir("/opt")
        fs.mkdir("/opt", exist_ok=True)

    def test_makedirs(self, fs):
        fs.makedirs("/a/b/c")
        assert fs.is_dir("/a/b/c")
        fs.makedirs("/a/b/c")  # idempotent

    def test_makedirs_through_file_raises(self, fs):
        fs.write_file("/a", "x")
        with pytest.raises(NotADirectoryVfsError):
            fs.makedirs("/a/b")

    def test_listdir_sorted(self, fs):
        fs.makedirs("/d")
        fs.write_file("/d/z", "1")
        fs.write_file("/d/a", "2")
        assert fs.listdir("/d") == ["a", "z"]

    def test_read_directory_raises(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryVfsError):
            fs.read_file("/d")

    def test_overwrite_file(self, fs):
        fs.write_file("/f", "one")
        fs.write_file("/f", "two")
        assert fs.read_text("/f") == "two"

    def test_overwrite_dir_with_file_raises(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryVfsError):
            fs.write_file("/d", "x")

    def test_file_size(self, fs):
        fs.write_file("/f", b"12345")
        assert fs.file_size("/f") == 5

    def test_chmod(self, fs):
        fs.write_file("/f", "x")
        fs.chmod("/f", 0o755)
        assert fs.get_node("/f").mode == 0o755


class TestRemoveRename:
    def test_remove_file(self, fs):
        fs.write_file("/f", "x")
        fs.remove("/f")
        assert not fs.exists("/f")

    def test_remove_missing_raises(self, fs):
        with pytest.raises(NotFoundError):
            fs.remove("/nope")

    def test_remove_missing_ok(self, fs):
        fs.remove("/nope", missing_ok=True)

    def test_remove_nonempty_dir_requires_recursive(self, fs):
        fs.makedirs("/d/sub")
        with pytest.raises(VfsError):
            fs.remove("/d")
        fs.remove("/d", recursive=True)
        assert not fs.exists("/d")

    def test_rename(self, fs):
        fs.write_file("/a", "x")
        fs.rename("/a", "/b")
        assert not fs.exists("/a")
        assert fs.read_text("/b") == "x"

    def test_rename_dir(self, fs):
        fs.makedirs("/d1/s")
        fs.write_file("/d1/s/f", "x")
        fs.rename("/d1", "/d2")
        assert fs.read_text("/d2/s/f") == "x"


class TestSymlinks:
    def test_create_and_read(self, fs):
        fs.write_file("/target", "data")
        fs.symlink("/target", "/link")
        assert fs.is_symlink("/link")
        assert fs.read_text("/link") == "data"
        assert fs.readlink("/link") == "/target"

    def test_relative_symlink(self, fs):
        fs.makedirs("/usr/bin")
        fs.write_file("/usr/bin/gcc-12", "real")
        fs.symlink("gcc-12", "/usr/bin/gcc")
        assert fs.read_text("/usr/bin/gcc") == "real"

    def test_symlink_through_directory(self, fs):
        fs.makedirs("/real/dir")
        fs.write_file("/real/dir/f", "x")
        fs.symlink("/real", "/alias")
        assert fs.read_text("/alias/dir/f") == "x"

    def test_resolve_path_canonicalizes(self, fs):
        fs.makedirs("/real")
        fs.write_file("/real/f", "x")
        fs.symlink("/real", "/alias")
        assert fs.resolve_path("/alias/f") == "/real/f"

    def test_dangling_symlink(self, fs):
        fs.symlink("/nowhere", "/dangling")
        assert fs.lexists("/dangling")
        assert not fs.exists("/dangling")

    def test_symlink_loop_detected(self, fs):
        fs.symlink("/b", "/a")
        fs.symlink("/a", "/b")
        with pytest.raises(SymlinkLoopError):
            fs.read_file("/a")

    def test_self_loop(self, fs):
        fs.symlink("/self", "/self")
        with pytest.raises(SymlinkLoopError):
            fs.get_node("/self")

    def test_symlink_chain(self, fs):
        fs.write_file("/end", "v")
        fs.symlink("/end", "/l1")
        fs.symlink("/l1", "/l2")
        fs.symlink("/l2", "/l3")
        assert fs.read_text("/l3") == "v"

    def test_no_follow_final(self, fs):
        fs.write_file("/t", "x")
        fs.symlink("/t", "/l")
        node = fs.get_node("/l", follow_symlinks=False)
        assert isinstance(node, Symlink)


class TestTraversal:
    def _populate(self, fs):
        fs.makedirs("/usr/bin")
        fs.makedirs("/usr/lib")
        fs.makedirs("/etc")
        fs.write_file("/usr/bin/gcc", "g")
        fs.write_file("/usr/lib/libc.so", "c")
        fs.write_file("/etc/passwd", "p")
        fs.symlink("/usr/bin/gcc", "/usr/bin/cc")

    def test_walk_preorder_sorted(self, fs):
        self._populate(fs)
        dirs = [d for d, _, _ in fs.walk("/")]
        assert dirs == ["/", "/etc", "/usr", "/usr/bin", "/usr/lib"]

    def test_walk_does_not_follow_symlinks(self, fs):
        fs.makedirs("/a")
        fs.symlink("/", "/a/rootlink")
        dirs = [d for d, _, _ in fs.walk("/")]
        assert "/a/rootlink" not in dirs

    def test_iter_files(self, fs):
        self._populate(fs)
        files = dict(fs.iter_files("/"))
        assert set(files) == {"/usr/bin/gcc", "/usr/lib/libc.so", "/etc/passwd"}

    def test_iter_entries_includes_symlinks(self, fs):
        self._populate(fs)
        entries = dict(fs.iter_entries("/"))
        assert isinstance(entries["/usr/bin/cc"], Symlink)
        assert isinstance(entries["/usr"], Directory)
        assert isinstance(entries["/etc/passwd"], RegularFile)

    def test_total_size(self, fs):
        fs.write_file("/a", b"123")
        fs.write_file("/b", b"4567")
        assert fs.total_size() == 7

    def test_total_size_synthetic(self, fs):
        fs.write_file("/big", SyntheticContent("seed", 10_000_000))
        assert fs.total_size() == 10_000_000


class TestTreeOps:
    def test_clone_independent(self, fs):
        fs.write_file("/f", "orig", create_parents=True)
        clone = fs.clone()
        clone.write_file("/f", "changed")
        clone.write_file("/new", "n")
        assert fs.read_text("/f") == "orig"
        assert not fs.exists("/new")

    def test_copy_tree_within(self, fs):
        fs.makedirs("/src/sub")
        fs.write_file("/src/sub/f", "x")
        fs.symlink("f", "/src/sub/l")
        fs.copy_tree("/src", "/dst")
        assert fs.read_text("/dst/sub/f") == "x"
        assert fs.readlink("/dst/sub/l") == "f"

    def test_copy_tree_across_filesystems(self, fs):
        other = VirtualFilesystem()
        other.write_file("/data/f", "远", create_parents=True)
        fs.copy_tree("/data", "/imported", source_fs=other)
        assert fs.read_text("/imported/f") == "远"

    def test_overlay(self, fs):
        fs.write_file("/kept", "k")
        fs.write_file("/replaced", "old")
        other = VirtualFilesystem()
        other.write_file("/replaced", "new")
        other.write_file("/added", "a")
        fs.overlay(other)
        assert fs.read_text("/kept") == "k"
        assert fs.read_text("/replaced") == "new"
        assert fs.read_text("/added") == "a"


class TestContent:
    def test_synthetic_deterministic(self):
        a = SyntheticContent("s", 100)
        b = SyntheticContent("s", 100)
        assert a.digest == b.digest
        assert a.read() == b.read()
        assert len(a.read()) == 100

    def test_synthetic_distinct_seeds(self):
        assert SyntheticContent("a", 10).digest != SyntheticContent("b", 10).digest

    def test_synthetic_distinct_sizes(self):
        assert SyntheticContent("a", 10).digest != SyntheticContent("a", 11).digest

    def test_synthetic_negative_size_rejected(self):
        with pytest.raises(ValueError):
            SyntheticContent("a", -1)

    def test_inline_digest_matches_sha(self):
        import hashlib

        c = InlineContent(b"hello")
        assert c.digest == "sha256:" + hashlib.sha256(b"hello").hexdigest()

    def test_inline_synthetic_never_collide(self):
        # A synthetic file and an inline file with identical bytes must not
        # share a digest: digests identify providers, not streams.
        syn = SyntheticContent("x", 32)
        inline = InlineContent(syn.read())
        assert syn.digest != inline.digest


class TestSortedItemsCache:
    def _dir(self):
        d = Directory()
        d.children["zeta"] = RegularFile(content=InlineContent(b"z"))
        d.children["alpha"] = RegularFile(content=InlineContent(b"a"))
        d.children["mid"] = RegularFile(content=InlineContent(b"m"))
        return d

    def test_iteration_order_is_lexicographic(self):
        # Pinned: every consumer (diffing, layer encoding, tar walks)
        # relies on name order regardless of insertion order.
        d = self._dir()
        assert [name for name, _ in d.sorted_items()] == [
            "alpha", "mid", "zeta"]

    def test_repeat_calls_reuse_cached_list(self):
        d = self._dir()
        assert d.sorted_items() is d.sorted_items()

    def test_cache_invalidated_on_every_mutation(self):
        d = self._dir()
        first = d.sorted_items()
        d.children["beta"] = RegularFile(content=InlineContent(b"b"))
        assert [n for n, _ in d.sorted_items()] == [
            "alpha", "beta", "mid", "zeta"]
        del d.children["zeta"]
        assert [n for n, _ in d.sorted_items()] == ["alpha", "beta", "mid"]
        d.children.pop("mid")
        assert [n for n, _ in d.sorted_items()] == ["alpha", "beta"]
        d.children.update({"omega": RegularFile(content=InlineContent(b"o"))})
        assert [n for n, _ in d.sorted_items()] == ["alpha", "beta", "omega"]
        d.children.clear()
        assert d.sorted_items() == []
        assert first[0][0] == "alpha"   # old snapshots are unaffected

    def test_clone_does_not_share_cache_entries(self):
        d = self._dir()
        d.sorted_items()
        twin = d.clone()
        twin.children["extra"] = RegularFile(content=InlineContent(b"e"))
        assert [n for n, _ in twin.sorted_items()] == [
            "alpha", "extra", "mid", "zeta"]
        assert [n for n, _ in d.sorted_items()] == ["alpha", "mid", "zeta"]


def tree_rows(fs):
    """Every node of *fs* as ``(path, kind, mode, content digest or target)``."""
    rows = [("/", "dir", fs.root.mode, None)]
    for path, node in fs.iter_entries():
        if isinstance(node, RegularFile):
            rows.append((path, "file", node.mode, node.content.digest))
        elif isinstance(node, Symlink):
            rows.append((path, "symlink", node.mode, node.target))
        else:
            rows.append((path, "dir", node.mode, None))
    return rows


_names = st.sampled_from(["a", "b", "c"])
_paths = st.lists(_names, min_size=1, max_size=3).map(lambda p: "/" + "/".join(p))
_targets = st.one_of(_paths, _names, st.just("../a"))
_setup_op = st.one_of(
    st.tuples(st.just("dir"), _paths),
    st.tuples(st.just("file"), _paths, st.binary(max_size=4)),
    st.tuples(st.just("symlink"), _paths, _targets),
)
_write_op = st.one_of(
    st.tuples(st.just("write"), _paths, st.binary(max_size=4), st.booleans()),
    st.tuples(st.just("writable_dir"), _paths, st.booleans()),
)


def _build(setup_ops):
    fs = VirtualFilesystem()
    for op in setup_ops:
        try:
            if op[0] == "dir":
                fs.makedirs(op[1])
            elif op[0] == "file":
                fs.write_file(op[1], op[2], create_parents=True)
            else:
                fs.symlink(op[2], op[1], create_parents=True)
        except VfsError:
            pass
    return fs


def _apply_write(fs, op):
    """Run one write; returns the error type it raised, or None."""
    try:
        if op[0] == "write":
            fs.write_file(op[1], op[2], create_parents=op[3])
        else:
            node = fs.writable_dir(op[1], create=op[2])
            node.mode = 0o700
            node.children["new"] = RegularFile(content=InlineContent(b"n"))
    except VfsError as exc:
        return type(exc)
    return None


_LOOP = [("symlink", "/l1", "/l2"), ("symlink", "/l2", "/l1")]


class TestOneWalkWrites:
    """``writable_dir`` resolves a chain of plain directories in one walk;
    everything else (missing parts, symlinks, files) takes the full route."""

    @given(st.lists(_setup_op, max_size=8), st.lists(_write_op, min_size=1, max_size=6))
    def test_writes_on_a_clone_match_an_unshared_tree(self, setup_ops, writes):
        original = _build(setup_ops)
        before = tree_rows(original)
        work = original.clone()
        unshared = _build(setup_ops)
        for op in writes:
            assert _apply_write(work, op) == _apply_write(unshared, op)
        assert tree_rows(work) == tree_rows(unshared)
        assert tree_rows(original) == before

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("setup, path, create, error", [
        ([], "/no/such/f", False, NotFoundError),
        ([("file", "/f", b"x")], "/f/x", False, NotADirectoryVfsError),
        ([("file", "/f", b"x")], "/f/x", True, NotADirectoryVfsError),
        (_LOOP, "/l1/x", False, SymlinkLoopError),
        (_LOOP, "/l1/x", True, SymlinkLoopError),
    ])
    def test_write_errors(self, setup, path, create, error, shared):
        fs = _build(setup)
        if shared:
            fs = fs.clone()
        before = tree_rows(fs)
        with pytest.raises(error):
            fs.write_file(path, "x", create_parents=create)
        with pytest.raises(error):
            fs.writable_dir(path.rsplit("/", 1)[0], create=create)
        assert tree_rows(fs) == before

    def test_write_through_symlinked_dir_of_a_clone(self):
        fs = VirtualFilesystem()
        fs.write_file("/real/sub/f", "old", create_parents=True)
        fs.symlink("/real", "/link")
        work = fs.clone()
        work.write_file("/link/sub/g", "new")
        assert work.read_text("/real/sub/g") == "new"
        assert not fs.exists("/real/sub/g")

    def test_write_into_cloned_dir_makes_no_resolve_call(self, monkeypatch):
        fs = VirtualFilesystem()
        fs.write_file("/opt/app/bin/x", "x", create_parents=True)
        work = fs.clone()
        calls = []
        resolve = VirtualFilesystem._resolve

        def counted(self, *args, **kwargs):
            calls.append(args)
            return resolve(self, *args, **kwargs)

        monkeypatch.setattr(VirtualFilesystem, "_resolve", counted)
        work.write_file("/opt/app/bin/y", "y")
        work.write_file("/opt/app/bin/z", "z", create_parents=True)
        assert calls == []
        monkeypatch.undo()
        assert work.read_text("/opt/app/bin/y") == "y"
        assert not fs.exists("/opt/app/bin/y")
