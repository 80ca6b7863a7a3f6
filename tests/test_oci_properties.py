"""Deeper property tests over the OCI substrate."""

from hypothesis import assume, given
from hypothesis import strategies as st

from repro.oci import Layer, LayerEntry, apply_layer, diff_filesystems, flatten_layers
from repro.oci.apply import flatten_memo_clear
from repro.oci.diff import layer_from_tree
from repro.vfs import Directory, InlineContent, RegularFile, VfsError, VirtualFilesystem
from tests.test_vfs_filesystem import tree_rows

_names = st.text(alphabet="abcd", min_size=1, max_size=3)
_paths = st.builds(lambda parts: "/" + "/".join(parts),
                   st.lists(_names, min_size=1, max_size=3))


@st.composite
def _random_fs(draw):
    fs = VirtualFilesystem()
    for path in draw(st.lists(_paths, max_size=6, unique=True)):
        try:
            fs.write_file(path, draw(st.binary(max_size=16)), create_parents=True)
        except Exception:
            pass  # path collides with an existing directory: fine
    return fs


def _file_map(fs):
    return {p: n.content.digest for p, n in fs.iter_files()}


class TestFlattenProperties:
    @given(_random_fs())
    def test_layer_from_tree_flattens_back(self, fs):
        layer = layer_from_tree(fs)
        rebuilt = flatten_layers([layer])
        assert _file_map(rebuilt) == _file_map(fs)

    @given(_random_fs(), _random_fs())
    def test_flatten_equals_sequential_diffs(self, a, b):
        """flatten([tree(a), diff(a,b)]) reproduces b exactly."""
        layers = [layer_from_tree(a), diff_filesystems(a, b)]
        assert _file_map(flatten_layers(layers)) == _file_map(b)

    @given(_random_fs())
    def test_apply_layer_idempotent_for_pure_adds(self, fs):
        layer = layer_from_tree(fs)
        once = flatten_layers([layer])
        twice = apply_layer(once.clone(), layer)
        assert _file_map(once) == _file_map(twice)

    @given(_random_fs(), _random_fs(), _random_fs())
    def test_three_way_stack(self, a, b, c):
        layers = [
            layer_from_tree(a),
            diff_filesystems(a, b),
            diff_filesystems(b, c),
        ]
        assert _file_map(flatten_layers(layers)) == _file_map(c)


class TestTarCodecProperties:
    @given(_random_fs())
    def test_tar_roundtrip_preserves_files(self, fs):
        layer = layer_from_tree(fs)
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        rebuilt = flatten_layers([restored])
        assert _file_map(rebuilt) == _file_map(fs)

    @given(st.lists(_paths, min_size=1, max_size=5, unique=True))
    def test_whiteouts_roundtrip_through_tar(self, paths):
        layer = Layer(entries=[LayerEntry.whiteout(p) for p in paths])
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        assert [e.kind for e in restored] == ["whiteout"] * len(paths)
        assert sorted(e.path for e in restored) == sorted(
            e.path for e in layer
        )

    def test_opaque_roundtrip_through_tar(self):
        layer = Layer(entries=[LayerEntry.opaque("/var/cache")])
        restored = Layer.from_tar_bytes(layer.to_tar_bytes())
        assert restored.entries[0].kind == "opaque"
        assert restored.entries[0].path == "/var/cache"


class TestDiffMinimality:
    @given(_random_fs())
    def test_self_diff_empty(self, fs):
        assert len(diff_filesystems(fs, fs.clone())) == 0

    @given(_random_fs(), st.data())
    def test_single_change_single_entry(self, fs, data):
        files = sorted(p for p, _ in fs.iter_files())
        if not files:
            return
        target = data.draw(st.sampled_from(files))
        changed = fs.clone()
        changed.write_file(target, b"CHANGED-CONTENT-UNIQUE")
        layer = diff_filesystems(fs, changed)
        assert layer.paths() == [target]


# Small path and mode alphabets make entries collide: a file replaces a
# directory and back, symlinks point at (or through) other entries, and
# whiteouts and opaque markers hit what earlier layers wrote.
_stack_names = st.sampled_from(["a", "b"])
_stack_paths = st.lists(_stack_names, min_size=1, max_size=3).map(
    lambda p: "/" + "/".join(p))
_modes = st.sampled_from([0o755, 0o700, 0o644])
_entries = st.one_of(
    st.builds(lambda p, d, m: LayerEntry.file(p, InlineContent(d), mode=m),
              _stack_paths, st.binary(max_size=3), _modes),
    st.builds(LayerEntry.directory, _stack_paths, _modes),
    st.builds(LayerEntry.symlink, _stack_paths,
              st.one_of(_stack_paths, _stack_names, st.just("../a"))),
    st.builds(LayerEntry.whiteout, _stack_paths),
    st.builds(LayerEntry.opaque, _stack_paths),
)
_layers = st.lists(_entries, max_size=8).map(lambda es: Layer(entries=list(es)))


def _fold(stack):
    """The reference flatten: every layer applied to one fresh tree."""
    fs = VirtualFilesystem()
    for layer in stack:
        apply_layer(fs, layer)
    return fs


def _outcome(flatten, stack):
    """The full tree *flatten* builds for *stack*, or the error it raises."""
    try:
        return tree_rows(flatten(stack))
    except VfsError as exc:
        return type(exc)


def _scribble(fs):
    """Mutate every directory and file of *fs* through the public API."""
    for path, node in list(fs.iter_entries()):
        if isinstance(node, Directory):
            fs.write_file(path + "/scribble", b"s")
            fs.chmod(path, 0o700)
        elif isinstance(node, RegularFile):
            fs.chmod(path, 0o600)
    for name in fs.listdir("/")[:1]:
        fs.remove("/" + name, recursive=True)


class TestPrefixChainedFlatten:
    @given(st.lists(_layers, min_size=1, max_size=5))
    def test_flatten_after_its_prefix_equals_fold(self, stack):
        flatten_memo_clear()
        prefix = stack[:-1]
        assert _outcome(flatten_layers, prefix) == _outcome(_fold, prefix)
        assert _outcome(flatten_layers, stack) == _outcome(_fold, stack)
        # A failed extension leaves the memoized prefix intact.
        assert _outcome(flatten_layers, prefix) == _outcome(_fold, prefix)

    @given(_layers, _layers, _layers)
    def test_mutating_results_never_reaches_the_memo(self, a, b, c):
        expected = _outcome(_fold, [a, b])
        assume(not isinstance(expected, type))
        assume(not isinstance(_outcome(_fold, [a, c]), type))
        flatten_memo_clear()
        with_b = flatten_layers([a, b])
        with_c = flatten_layers([a, c])
        _scribble(with_b)
        _scribble(with_c)
        assert tree_rows(flatten_layers([a, b])) == expected
        assert tree_rows(flatten_layers([a])) == tree_rows(_fold([a]))
