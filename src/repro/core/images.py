"""The coMtainer image set: Env, Base, Sysenv, Rebase (Figure 5).

* **Env** (user side, build stage): the distro base + build toolchain,
  with the command-line hijacker installed over the tool binaries and the
  ``coMtainer-build`` entry point.  Compatible with standard base images.
* **Base** (user side, dist stage): the distro base + a marker; dist
  images built on it stay standard-compatible.
* **Sysenv** (system side, rebuild): base + toolchains (distro GNU and —
  per flavor — the vendor compilers or LLVM) + the optimized vendor
  packages + ``coMtainer-rebuild``.
* **Rebase** (system side, redirect): base + ``coMtainer-redirect`` with
  both repositories enabled.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from repro import simbin
from repro.containers.engine import ContainerEngine
from repro.containers.hijack import install_hijackers
from repro.images import UBUNTU_REF, generic_repository, install_ubuntu_base
from repro.memo import ContentMemo
from repro.oci.diff import diff_filesystems
from repro.oci.image import ImageConfig
from repro.oci.layer import Layer
from repro.pkg import catalog
from repro.pkg.apt import AptFacade
from repro.pkg.repository import Repository, RepositoryPool
from repro.sysmodel import SystemModel

# Import registers the coMtainer-* programs in the userland registry.
from repro.core import entrypoints as _entrypoints  # noqa: F401


def env_ref(arch: str) -> str:
    return f"comt:{arch}.env"


def base_ref(arch: str) -> str:
    return f"comt:{arch}.base"


def sysenv_ref(system_key: str, flavor: str = "vendor") -> str:
    suffix = "" if flavor == "vendor" else f".{flavor}"
    return f"comt:{system_key}.sysenv{suffix}"


def rebase_ref(system_key: str) -> str:
    return f"comt:{system_key}.rebase"


#: Derived images by content key (see :func:`_derive_image`), shared by
#: every engine in the process.
_DERIVED: "ContentMemo[Tuple[ImageConfig, Tuple[Layer, ...]]]" = ContentMemo(cap=64)


class ArchitectureMismatchError(ValueError):
    """A system-side engine's architecture differs from its system's."""


@lru_cache(maxsize=None)
def _system_repositories(arch: str) -> Tuple[Repository, Repository]:
    """The vendor and LLVM repositories of *arch*, built once per process."""
    return catalog.build_vendor_repository(arch), catalog.build_llvm_repository(arch)


def _derive_image(
    engine: ContainerEngine,
    base: str,
    ref: str,
    mutate,
    comment: str,
    key: tuple = (),
) -> str:
    """Install *ref*: the image *base* with *mutate* applied to its files.

    The derived image is a pure function of the base image (its layer
    digests and config), *ref*, *comment*, the engine's architecture
    (which picks the repositories) and *key*, which must hold whatever
    else decides *mutate*.  So it is derived once per such key and shared
    by every engine: layers are never changed once digested, and
    ``add_image`` gives each engine its own copy of the config.
    """
    stored = engine.image(base)
    memo_key = (stored.layer_key(), stored.config.digest, ref, comment,
                engine.arch) + key

    def derive() -> Tuple[ImageConfig, Tuple[Layer, ...]]:
        fs = engine.image_filesystem(base)
        before = fs.clone()
        config = stored.config.clone()
        mutate(fs, config)
        layer = diff_filesystems(before, fs, comment=comment)
        layers = list(stored.layers)
        if len(layer):
            layers.append(layer)
            config.diff_ids.append(layer.digest)
            config.add_history(comment)
        return config, tuple(layers)

    config, layers = _DERIVED.get(memo_key, derive)
    engine.add_image(ref, config, list(layers))
    return ref


def install_user_side_images(engine: ContainerEngine) -> None:
    """Install ubuntu base + coMtainer Env/Base on a user-side engine."""
    if not engine.has_image(UBUNTU_REF):
        install_ubuntu_base(engine)
    arch = engine.arch
    pool = RepositoryPool([generic_repository(arch)])

    def make_base(fs, config: ImageConfig) -> None:
        fs.write_file(
            "/.coMtainer/release", "coMtainer base 1.0\n", create_parents=True
        )

    def make_env(fs, config: ImageConfig) -> None:
        apt = AptFacade(fs, pool)
        apt.install(catalog.default_devel_install())
        fs.write_file(
            "/usr/bin/coMtainer-build",
            simbin.program_marker("coMtainer-build"),
            mode=0o755,
            create_parents=True,
        )
        fs.write_file(
            "/.coMtainer/release", "coMtainer env 1.0\n", create_parents=True
        )
        install_hijackers(fs)

    _derive_image(engine, UBUNTU_REF, base_ref(arch), make_base, "coMtainer Base image")
    _derive_image(engine, UBUNTU_REF, env_ref(arch), make_env, "coMtainer Env image")


def install_system_side_images(
    engine: ContainerEngine, system: SystemModel, flavor: str = "vendor"
) -> None:
    """Install Sysenv/Rebase (+ repos) on a system-side engine."""
    if not engine.has_image(UBUNTU_REF):
        install_ubuntu_base(engine)
    arch = engine.arch
    if arch != system.arch:
        raise ArchitectureMismatchError(
            f"engine architecture {arch!r} does not match system "
            f"{system.key!r} ({system.arch!r})"
        )

    vendor_repo, llvm_repo = _system_repositories(arch)
    engine.register_repository(vendor_repo)
    engine.register_repository(llvm_repo)
    sources = (
        f"repo ubuntu-generic\nrepo {vendor_repo.name}\nrepo {llvm_repo.name}\n"
    )
    pool = RepositoryPool([generic_repository(arch), vendor_repo, llvm_repo])

    def make_sysenv(fs, config: ImageConfig) -> None:
        fs.write_file("/etc/apt/sources.list", sources, create_parents=True)
        apt = AptFacade(fs, pool)
        apt.install(catalog.default_devel_install())
        if flavor == "vendor":
            apt.install([pkg.name for pkg in _vendor_packages(vendor_repo)])
        elif flavor == "llvm":
            apt.install(["clang-17", "llvm-17-linker-tools"])
            # Optimized libraries are still the system's vendor ones.
            apt.install([
                pkg.name for pkg in _vendor_packages(vendor_repo)
                if "toolchain" not in pkg.tags
            ])
        fs.write_file(
            "/usr/bin/coMtainer-rebuild",
            simbin.program_marker("coMtainer-rebuild"),
            mode=0o755,
            create_parents=True,
        )
        env_path = config.env_dict().get("PATH", "")
        extra = "/opt/intel/bin:/opt/phytium/bin"
        config.env = [e for e in config.env if not e.startswith("PATH=")]
        config.env.append(f"PATH={env_path}:{extra}" if env_path else f"PATH={extra}")

    def make_rebase(fs, config: ImageConfig) -> None:
        fs.write_file("/etc/apt/sources.list", sources, create_parents=True)
        fs.write_file(
            "/usr/bin/coMtainer-redirect",
            simbin.program_marker("coMtainer-redirect"),
            mode=0o755,
            create_parents=True,
        )

    _derive_image(
        engine, UBUNTU_REF, sysenv_ref(system.key, flavor), make_sysenv,
        f"coMtainer Sysenv image ({flavor})", key=(flavor,),
    )
    _derive_image(
        engine, UBUNTU_REF, rebase_ref(system.key), make_rebase,
        "coMtainer Rebase image",
    )


def _vendor_packages(repo) -> list:
    return [repo.latest(name) for name in repo.names()]
