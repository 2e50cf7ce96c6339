"""Hierarchical profiler: exact Trace agreement on both engines."""

import json

import pytest

from repro.core import Cpu, Memory
from repro.isa import assemble
from repro.obs.profiler import (STALL_KINDS, profile_cpu, profile_network,
                                region_paths_from_labels)
from repro.rrm.networks import suite

NETWORKS = suite(4)
BY_NAME = {net.name: net for net in NETWORKS}


class TestRegionMetadata:
    @pytest.mark.parametrize("level", list("abcdef"))
    def test_region_paths_align_with_program(self, level):
        from repro.rrm.suite import plan_for
        plan = plan_for(BY_NAME["sun2017"], level)
        assert len(plan.region_paths) == len(assemble(plan.text))

    def test_paths_nest_layer_then_kernel(self):
        from repro.rrm.suite import plan_for
        plan = plan_for(BY_NAME["sun2017"], "e")
        layers = {path[0] for path in plan.region_paths if path}
        assert any(name.startswith("L0.") for name in layers)
        kernels = {path[1] for path in plan.region_paths if len(path) > 1}
        assert "matvec" in kernels


class TestExactness:
    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_totals_equal_trace_all_networks(self, name):
        # profile_network asserts profile totals == Trace totals
        # internally; a return (no raise) is the pass.
        profile = profile_network(name, "e")
        assert profile.total_cycles > 0

    @pytest.mark.parametrize("level", list("abcdef"))
    def test_totals_equal_trace_all_levels(self, level):
        profile = profile_network("sun2017", level)
        assert profile.total_cycles > 0

    @pytest.mark.parametrize("level", list("abcdef"))
    def test_engines_agree_exactly(self, level):
        interp = profile_network("naparstek2019", level, engine="interp")
        turbo = profile_network("naparstek2019", level, engine="turbo")
        assert interp.total_cycles == turbo.total_cycles
        assert interp.total_instrs == turbo.total_instrs
        assert interp.stall_summary() == turbo.stall_summary()

    def test_stall_split_sums_to_cycles_minus_instrs(self):
        profile = profile_network("challita2017", "c")
        stalls = profile.stall_summary()
        assert set(stalls) <= set(STALL_KINDS)
        assert sum(stalls.values()) \
            == profile.total_cycles - profile.total_instrs

    def test_unknown_network_raises(self):
        with pytest.raises(KeyError):
            profile_network("nope", "e")


class TestExports:
    @pytest.fixture(scope="class")
    def profile(self):
        return profile_network("sun2017", "e")

    def test_folded_lines_sum_to_total(self, profile):
        total = 0
        for line in profile.folded().strip().splitlines():
            stack, cycles = line.rsplit(" ", 1)
            assert stack
            total += int(cycles)
        assert total == profile.total_cycles

    def test_folded_mnemonic_leaves(self, profile):
        folded = profile.folded(mnemonics=True)
        assert ";pl.sdotsp" in folded or ";lw" in folded
        total = sum(int(line.rsplit(" ", 1)[1])
                    for line in folded.strip().splitlines())
        assert total == profile.total_cycles

    def test_json_round_trip(self, profile):
        data = json.loads(profile.to_json())
        assert data["total_cycles"] == profile.total_cycles
        assert data["tree"]["name"] == "sun2017"
        assert data["meta"]["level"] == "e"
        child_sum = sum(c["cycles"] for c in data["tree"]["children"])
        assert child_sum + data["tree"]["self"]["cycles"] \
            == data["total_cycles"]

    def test_table_depth_filter(self, profile):
        full = profile.table()
        shallow = profile.table(max_depth=1)
        assert len(shallow.splitlines()) < len(full.splitlines())
        assert "matvec" not in shallow
        assert "matvec" in full


class TestLabelFallback:
    SOURCE = """
        li x1, 0
        li x2, 10
    loop:
        addi x1, x1, 1
        bne x1, x2, loop
    tail:
        addi x3, x0, 7
        ebreak
    """

    def test_label_regions(self):
        program = assemble(self.SOURCE)
        cpu = Cpu(program, Memory(1 << 16))
        cpu.run()
        profile = profile_cpu(cpu)
        names = {path[-1] for path, _node in profile.root.walk()}
        assert {"(entry)", "loop", "tail"} <= names
        trace = cpu.trace()
        assert profile.total_cycles == trace.total_cycles
        assert profile.total_instrs == trace.total_instrs

    def test_paths_cover_program(self):
        program = assemble(self.SOURCE)
        paths = region_paths_from_labels(program)
        assert len(paths) == len(program)
        assert paths[0] == ("(entry)",)

    def test_length_mismatch_rejected(self):
        program = assemble(self.SOURCE)
        cpu = Cpu(program, Memory(1 << 16))
        cpu.run()
        with pytest.raises(ValueError):
            profile_cpu(cpu, region_paths=[()])


class TestSuiteAutoEngine:
    def test_auto_resolves_by_scale(self):
        from repro.rrm.suite import resolve_engine
        assert resolve_engine("auto", scale=1) == "turbo"
        assert resolve_engine("auto", scale=4) == "interp"
        assert resolve_engine("interp", scale=1) == "interp"
        assert resolve_engine("turbo", scale=4) == "turbo"

    @pytest.mark.parametrize("level", ["a", "e"])
    def test_turbo_matches_interp_through_runner(self, level):
        # Level a runs branch-loop windows, level e hardware-loop ones.
        from repro.rrm.suite import SuiteRunner
        network = BY_NAME["sun2017"]
        a = SuiteRunner(scale=4, check=False,
                        engine="interp").run_network(network, level)
        b = SuiteRunner(scale=4, check=False,
                        engine="turbo").run_network(network, level)
        assert a.total_cycles == b.total_cycles


class TestMeta:
    def test_meta_records_engine_and_context(self):
        profile = profile_network("sun2017", "e", engine="turbo")
        assert profile.meta["engine"] == "turbo"
        assert profile.meta["network"] == "sun2017"
        assert profile.meta["level"] == "e"
        assert profile.meta["wait_states"] == 0

    def test_check_mode_runs_golden_model(self):
        profile = profile_network("sun2017", "e", check=True)
        assert profile.total_cycles > 0

    def test_network_object_accepted(self):
        profile = profile_network(BY_NAME["sun2017"], "e")
        assert profile.meta["network"] == "sun2017"

    def test_input_randomness_is_seeded(self):
        a = profile_network("sun2017", "e", seed=7)
        b = profile_network("sun2017", "e", seed=7)
        assert a.total_cycles == b.total_cycles
