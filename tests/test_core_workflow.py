"""End-to-end workflow tests: the four schemes through the full pipeline."""

import pytest

from repro.apps.specs import MIB, get_app
from repro.core.workflow import ComtainerSession, WorkflowError, measure_schemes
from repro.perf import predict_time, scheme_traits
from repro.sysmodel import AARCH64_CLUSTER, X86_CLUSTER
from repro import simbin
from repro.toolchain.artifacts import PaddedContent, read_artifact


@pytest.fixture(scope="module")
def x86():
    return ComtainerSession(system=X86_CLUSTER)


@pytest.fixture(scope="module")
def arm():
    return ComtainerSession(system=AARCH64_CLUSTER)


def _expected(workload, system, scheme, nodes=16):
    return predict_time(
        workload, system, scheme_traits(workload, system, scheme), nodes=nodes
    )


class TestSchemesEndToEnd:
    """The measured pipeline must match the calibrated model exactly:
    provenance extraction is the only path between them."""

    @pytest.mark.parametrize("workload", ["lulesh", "hpl", "hpccg", "lammps.eam"])
    def test_x86_all_schemes(self, x86, workload):
        times = measure_schemes(x86, workload)
        for scheme, seconds in times.items():
            assert seconds == pytest.approx(
                _expected(workload, X86_CLUSTER, scheme), rel=0.005
            ), (workload, scheme)

    @pytest.mark.parametrize("workload", ["lulesh", "openmx.pt13"])
    def test_arm_all_schemes(self, arm, workload):
        times = measure_schemes(arm, workload)
        for scheme, seconds in times.items():
            assert seconds == pytest.approx(
                _expected(workload, AARCH64_CLUSTER, scheme), rel=0.005
            ), (workload, scheme)

    def test_hpccg_degrades_under_adaptation(self, x86):
        times = measure_schemes(x86, "hpccg", schemes=("original", "adapted"))
        assert times["adapted"] > times["original"]

    def test_lulesh_x86_comm_dominated(self, x86):
        times = measure_schemes(x86, "lulesh", schemes=("original", "adapted"))
        improvement = times["original"] / times["adapted"] - 1
        assert improvement < 0.20   # only +15.6% in the paper

    def test_multiple_workloads_share_app_artifacts(self, x86):
        x86.run_scheme("lammps.eam", "adapted")
        adapted_before = dict(x86._adapted)
        x86.run_scheme("lammps.lj", "adapted")
        assert x86._adapted == adapted_before  # same adapted image reused

    def test_unknown_scheme_raises(self, x86):
        with pytest.raises(WorkflowError):
            x86.run_scheme("lulesh", "turbo")


class TestOptimizedArtifacts:
    def test_optimized_binary_has_lto_and_pgo(self, x86):
        ref = x86.optimized_image("lulesh")
        fs = x86.system_engine.image_filesystem(ref)
        exe = read_artifact(fs.read_file("/app/lulesh"))
        assert exe.lto_applied
        assert exe.lto_coverage == 1.0
        assert exe.pgo_applied
        assert exe.pgo_profile == "lulesh|x86"

    def test_pgo_profile_is_per_workload(self, x86):
        ref = x86.optimized_image("lammps.lj")
        fs = x86.system_engine.image_filesystem(ref)
        exe = read_artifact(fs.read_file("/app/lmp"))
        assert exe.pgo_profile == "lammps.lj|x86"

    def test_native_binary_tuned(self, x86):
        ref = x86.native_image("lulesh")
        fs = x86.system_engine.image_filesystem(ref)
        exe = read_artifact(fs.read_file("/app/lulesh"))
        assert exe.toolchain == "intel-2024"
        members = exe.member_objects()
        assert any(m.fflags.get("unroll-loops") for m in members)
        assert any(m.fflags.get("fast-math") for m in members)

    def test_adapted_binary_not_tuned(self, x86):
        ref = x86.adapted_image("lulesh")
        fs = x86.system_engine.image_filesystem(ref)
        exe = read_artifact(fs.read_file("/app/lulesh"))
        members = exe.member_objects()
        assert not any(m.fflags.get("fast-math") for m in members)


class TestSingleNodeMotivation:
    """Figure 3's single-node LULESH run through the real pipeline."""

    def test_single_node_x86(self, x86):
        orig = x86.run_scheme("lulesh", "original", nodes=1)
        adapted = x86.run_scheme("lulesh", "adapted", nodes=1)
        reduction = 1 - adapted / orig
        # cxxo-level recovery (paper: up to 50% on x86); adapted lacks the
        # hand-tuned flags so it recovers slightly less.
        assert 0.40 < reduction < 0.55


class TestRedirectedImageSize:
    def test_adapted_image_size_reasonable(self, x86):
        """The optimized image swaps libs; size stays in the same ballpark
        (MKL is bigger than OpenBLAS, so some growth is expected)."""
        ref = x86.adapted_image("lulesh")
        total = x86.system_engine.image_filesystem(ref).total_size()
        original_target = get_app("lulesh").image_size["amd64"] * MIB
        assert 0.9 * original_target < total < 1.8 * original_target


class TestPayloadOnlyDecode:
    def test_cold_adapt_and_run_never_materialize_artifact_padding(self, monkeypatch):
        """The backend decodes every object and archive it links from the
        payload alone, and the engine execs a binary from its payload, so
        neither a cold adaptation nor a run of the result reads padded bytes."""
        counts = {"read": 0, "decode": 0}
        read, decode = PaddedContent.read, simbin.read_artifact_payload

        def counting_read(self):
            counts["read"] += 1
            return read(self)

        def counting_decode(data):
            counts["decode"] += 1
            return decode(data)

        monkeypatch.setattr(PaddedContent, "read", counting_read)
        monkeypatch.setattr(simbin, "read_artifact_payload", counting_decode)
        session = ComtainerSession(system=X86_CLUSTER)
        session.adapt("lammps")
        assert counts["decode"] > 0
        assert counts["read"] == 0
        assert session.run_scheme("lammps.eam", "adapted") == pytest.approx(
            _expected("lammps.eam", X86_CLUSTER, "adapted"), rel=0.005)
        assert counts["read"] == 0
