"""The dpkg database parse is memoized by content; it must read exactly
what an uncached parse of the same files reads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pkg import Package, PackagedFile, Repository, RepositoryPool, parse_depends
from repro.pkg.apt import AptFacade
from repro.pkg.database import INFO_DIR, STATUS_PATH, DpkgDatabase
from repro.pkg.rpm import read_package_database
from repro.vfs import VirtualFilesystem

N = 6
NAMES = [f"lib{i}" for i in range(N)]
OPTIMIZED = [
    Package(
        name=f"lib{i}-opt", version="2.0", architecture="amd64",
        equivalent_of=f"lib{i}", quality=1.5, tags=("blas", "opt"),
        provides=[f"lib{i}.so.1"],
        files=[PackagedFile(path=f"/usr/local/lib/lib{i}.so.1", size=96, kind="library")],
    )
    for i in range(N)
]

#: Same names as the repository's, other versions and files: a name's
#: ``.list`` differs between states, so nothing may be keyed by name.
UPGRADED = [
    Package(
        name=name, version="9.0", architecture="amd64",
        files=[PackagedFile(path=f"/usr/lib/{name}.so.9", size=32, kind="library")],
    )
    for name in NAMES
]


def _pool() -> RepositoryPool:
    repo = Repository("test", "amd64")
    for i, name in enumerate(NAMES):
        repo.add(Package(
            name=name, version=f"1.{i}", architecture="amd64",
            depends=parse_depends(f"lib{i - 1}") if i % 2 else [],
            files=[
                PackagedFile(path=f"/usr/lib/{name}.so.1", size=64, kind="library"),
                PackagedFile(path=f"/usr/share/doc/{name}/README", size=16 * (i + 1)),
            ],
        ))
    return RepositoryPool([repo])


POOL = _pool()

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("install"),
                  st.lists(st.sampled_from(NAMES), min_size=1, max_size=3)),
        st.tuples(st.just("remove"),
                  st.sampled_from(NAMES + [p.name for p in OPTIMIZED])),
        st.tuples(st.sampled_from(["replace", "upgrade"]),
                  st.integers(min_value=0, max_value=N - 1)),
    ),
    max_size=8,
)


def _uncached(fs: VirtualFilesystem) -> dict:
    """The database as a straight parse of the files reads it."""
    if not fs.exists(STATUS_PATH):
        return {}
    out = {}
    for stanza in fs.read_text(STATUS_PATH).split("\n\n"):
        if not stanza.strip():
            continue
        package = Package.from_control(stanza)
        path = f"{INFO_DIR}/{package.name}.list"
        files = []
        if fs.exists(path):
            files = [line for line in fs.read_text(path).splitlines() if line.strip()]
        out[package.name] = (package.to_control(), sorted(files))
    return out


def _view(db: DpkgDatabase) -> dict:
    return {name: (db.get(name).to_control(), db.file_list(name)) for name in db.names()}


def _apply(fs: VirtualFilesystem, op) -> None:
    # A fresh facade per step, so every step reads the persisted database.
    apt = AptFacade(fs, POOL)
    kind, arg = op
    if kind == "install":
        apt.install(arg)
    elif kind == "remove":
        apt.remove(arg)
    elif kind == "replace":
        apt.replace(NAMES[arg], OPTIMIZED[arg])
    else:
        apt.replace(NAMES[arg], UPGRADED[arg])


class TestDpkgReadMemo:
    @settings(max_examples=60)
    @given(_ops)
    def test_read_equals_uncached_parse_and_is_private(self, ops):
        fs = VirtualFilesystem()
        for op in ops:
            _apply(fs, op)
            expected = _uncached(fs)
            db = read_package_database(fs)
            assert _view(db) == expected
            # A caller's mutations stay in its own database.
            db.add(Package(name="intruder", version="1", architecture="amd64"),
                   file_paths=["/intruder"])
            for name in list(db.names())[:1]:
                db.remove(name)
            assert _view(read_package_database(fs)) == expected
            assert _view(read_package_database(fs.clone())) == expected

    def test_clones_share_packages_not_dicts(self):
        fs = VirtualFilesystem()
        AptFacade(fs, POOL).install(["lib3", "lib4"])
        first = DpkgDatabase.read_from(fs)
        second = DpkgDatabase.read_from(fs.clone())
        assert first.names() == second.names() == ["lib2", "lib3", "lib4"]
        assert all(first.get(n) is second.get(n) for n in first.names())
        first.remove("lib3")
        assert "lib3" in second
        assert second.file_list("lib3") == ["/usr/lib/lib3.so.1",
                                            "/usr/share/doc/lib3/README"]

    def test_symlinked_list_is_followed(self):
        fs = VirtualFilesystem()
        AptFacade(fs, POOL).install(["lib0"])
        fs.rename(f"{INFO_DIR}/lib0.list", "/elsewhere.list")
        fs.symlink("/elsewhere.list", f"{INFO_DIR}/lib0.list")
        assert DpkgDatabase.read_from(fs).file_list("lib0") == [
            "/usr/lib/lib0.so.1", "/usr/share/doc/lib0/README"]
