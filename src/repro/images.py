"""Builders for the generic distro base images.

Produces the "ubuntu:24.04"-like base images the paper's users build on:
a rootfs populated from the synthetic generic repository via apt, with a
sources.list pointing back at it, packaged as a single-layer OCI image.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.containers.engine import ContainerEngine
from repro.oci.diff import layer_from_tree
from repro.oci.image import ImageConfig
from repro.oci.layer import Layer
from repro.pkg import catalog
from repro.pkg.apt import AptFacade
from repro.pkg.repository import Repository, RepositoryPool
from repro.vfs import VirtualFilesystem

UBUNTU_REF = "ubuntu:24.04"


@lru_cache(maxsize=None)
def generic_repository(arch: str) -> Repository:
    """``ubuntu-generic`` for *arch*, built once and shared by every engine
    (repositories are never changed after the catalog builds them)."""
    return catalog.build_generic_repository(arch)


def build_ubuntu_base(arch: str) -> Tuple[ImageConfig, List[Layer]]:
    """Build the generic base image for *arch* (one rootfs layer)."""
    repo = generic_repository(arch)
    fs = VirtualFilesystem()
    for directory in ("/bin", "/usr/bin", "/usr/lib", "/etc", "/tmp", "/root",
                      "/var/lib/dpkg", "/usr/share"):
        fs.makedirs(directory)
    fs.write_file("/etc/apt/sources.list", "repo ubuntu-generic\n", create_parents=True)
    fs.write_file(
        "/etc/os-release",
        'NAME="Ubuntu"\nVERSION_ID="24.04"\nID=ubuntu\n',
        create_parents=True,
    )
    apt = AptFacade(fs, RepositoryPool([repo]))
    apt.install(catalog.default_base_install(arch))
    layer = layer_from_tree(fs, comment=f"ubuntu 24.04 base rootfs ({arch})")
    config = ImageConfig(
        architecture=arch,
        env=["PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin"],
        cmd=["/bin/bash"],
        labels={"org.opencontainers.image.ref.name": UBUNTU_REF},
        diff_ids=[layer.digest],
    )
    config.add_history(f"synthetic ubuntu base for {arch}")
    return config, [layer]


@lru_cache(maxsize=None)
def _ubuntu_base(arch: str) -> Tuple[ImageConfig, Tuple[Layer, ...]]:
    """:func:`build_ubuntu_base`, once per architecture per process."""
    config, layers = build_ubuntu_base(arch)
    return config, tuple(layers)


def install_ubuntu_base(engine: ContainerEngine, ref: str = UBUNTU_REF) -> str:
    """Register the base image (and its repo) on an engine.

    The image is built once per architecture and shared: its layers are
    never changed once digested, and ``add_image`` copies the config.
    """
    engine.register_repository(generic_repository(engine.arch))
    config, layers = _ubuntu_base(engine.arch)
    engine.add_image(ref, config, list(layers))
    return ref
