"""The PODEM engine, pinned against exhaustive ground truth.

Small networks (few enough inputs to enumerate) are the oracle here:
bit-parallel fault simulation over all 2^n vectors says exactly which
stuck-at faults are detectable, and the engine's verdicts must agree —
detections must come with a cube that really detects, untestability
proofs must never contradict an exhaustive detection, and the
end-to-end :func:`generate_tests` flow must classify every fault.
"""

import random

import pytest

from repro.telemetry import Telemetry
from repro.testgen import (BENCHMARKS, enumerate_stuck_faults,
                           exhaustive_vectors, fault_detect_matrix,
                           generate_tests,
                           iscas_like, random_network,
                           sequential_decider, sequential_test_plan,
                           shift_register, unroll)
from repro.testgen.atpg import (ABORTED, DETECTED, UNTESTABLE,
                                PodemEngine)

SWEEP_SEEDS = range(8)


def _sweep_network(seed):
    rng = random.Random(seed)
    return random_network(rng, n_gates=rng.randint(6, 16),
                          n_inputs=rng.randint(3, 8),
                          name=f"sweep{seed}")


def _ground_truth(network):
    """Exhaustively detectable faults (primary-output observation)."""
    vectors = list(exhaustive_vectors(network.primary_inputs))
    masks = fault_detect_matrix(network, vectors)
    return {fault for fault, mask in masks.items() if mask}


class TestPodemVsExhaustive:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_verdicts_agree_with_enumeration(self, seed):
        network = _sweep_network(seed)
        detectable = _ground_truth(network)
        engine = PodemEngine(network)
        for fault in enumerate_stuck_faults(network):
            result = engine.detect(fault)
            if result.status == DETECTED:
                assert fault in detectable, \
                    f"false detection claim for {fault.describe()}"
                # The returned cube (X inputs filled either way) must
                # really detect the fault.
                filled = {pi: result.vector.get(pi, False)
                          for pi in network.primary_inputs}
                assert fault_detect_matrix(network, [filled],
                                           faults=[fault])[fault], \
                    f"cube does not detect {fault.describe()}"
            elif result.status == UNTESTABLE:
                assert fault not in detectable, \
                    f"false untestability proof for {fault.describe()}"
            else:
                assert result.status == ABORTED

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_generate_tests_classifies_every_fault(self, seed):
        network = _sweep_network(seed)
        detectable = _ground_truth(network)
        run = generate_tests(network, seed=seed)
        assert set(run.confirmed) == detectable
        assert not run.missed, [f.describe() for f in run.missed]
        assert set(run.proven_untestable) == (
            set(enumerate_stuck_faults(network)) - detectable)
        assert run.coverage == 1.0
        assert run.efficiency == 1.0

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_compacted_vectors_still_confirmed_bit_parallel(self, seed):
        """run.confirmed is exactly what the final vector set detects."""
        network = _sweep_network(seed)
        run = generate_tests(network, seed=seed)
        masks = fault_detect_matrix(network, run.vectors)
        assert set(run.confirmed) == {f for f, m in masks.items() if m}


class TestEngineDiscipline:
    def test_backtrack_budget_is_respected(self):
        network = _sweep_network(3)
        engine = PodemEngine(network, backtrack_limit=1)
        for fault in enumerate_stuck_faults(network):
            result = engine.detect(fault)
            assert result.backtracks <= 1
            assert result.status in (DETECTED, UNTESTABLE, ABORTED)

    def test_zero_budget_never_claims_untestable_wrongly(self):
        network = _sweep_network(5)
        detectable = _ground_truth(network)
        engine = PodemEngine(network, backtrack_limit=0)
        for fault in enumerate_stuck_faults(network):
            result = engine.detect(fault)
            if result.status == UNTESTABLE:
                assert fault not in detectable

    def test_sequential_network_rejected(self):
        with pytest.raises(ValueError, match="sequential"):
            generate_tests(shift_register(2))

    def test_no_enumeration_on_wide_networks(self):
        """A 24-input network completes with a vector budget and PODEM
        call count nowhere near 2^24."""
        network = iscas_like(7, n_gates=120, n_inputs=24)
        run = generate_tests(network)
        assert run.stats.podem_calls <= run.n_collapsed
        assert len(run.vectors) + len(run.results) < 2 ** 12
        assert run.coverage > 0.9

    def test_benchmark_coverage_and_unclassified_faults_undetectable(self):
        """On the 500-gate benchmark, strict coverage stays at 99% or
        more, and an independent 8,192-vector random screen detects
        none of the faults the engine left unclassified."""
        network = BENCHMARKS["iscas_like_s1"]()
        run = generate_tests(network)
        assert run.coverage >= 0.99
        assert run.stats.podem_calls <= run.n_collapsed
        rng = random.Random(0xA7B6)
        screen = [{pi: bool(rng.getrandbits(1))
                   for pi in network.primary_inputs}
                  for _ in range(8192)]
        caught = fault_detect_matrix(network, screen, faults=run.missed)
        assert not any(caught.values())

    def test_counters_reach_telemetry(self):
        telemetry = Telemetry.capturing()
        network = _sweep_network(1)
        run = generate_tests(network, telemetry=telemetry)
        metrics = telemetry.metrics
        assert metrics.counter_value("atpg.podem_calls") == \
            run.stats.podem_calls
        assert metrics.counter_value("atpg.detected") == \
            run.stats.detected
        assert metrics.counter_value("atpg.backtracks") == \
            run.stats.backtracks


class TestTimeFrameExpansion:
    def test_unrolled_matches_stepped_simulation(self):
        network = sequential_decider()
        frames = 3
        rng = random.Random(11)
        for _ in range(10):
            stream = [{pi: bool(rng.getrandbits(1))
                       for pi in network.primary_inputs}
                      for _ in range(frames)]
            network.reset(False)
            stepped = [network.step(vector) for vector in stream]

            flat = unroll(network, frames, initial_state=False)
            assignment = dict(flat.pinned)
            for frame, vector in enumerate(stream):
                for pi, value in vector.items():
                    assignment[flat.net_at(pi, frame)] = value
            values = flat.network.evaluate(assignment)
            for frame in range(frames):
                for gate in network.gates.values():
                    unrolled_net = flat.net_at(gate.output, frame)
                    assert values[unrolled_net] == \
                        stepped[frame][gate.output], \
                        f"{gate.output} at frame {frame}"

    def test_vectors_from_roundtrip(self):
        network = shift_register(2)
        flat = unroll(network, 2, initial_state=False)
        assignment = {flat.net_at("sin", 0): True,
                      flat.net_at("sin", 1): False}
        vectors = flat.vectors_from(assignment)
        assert vectors == [{"sin": True}, {"sin": False}]

    def test_unroll_rejects_empty(self):
        with pytest.raises(ValueError, match="frame"):
            unroll(shift_register(2), 0)


class TestSequentialPlan:
    def test_decider_reaches_full_toggle_coverage(self):
        plan = sequential_test_plan(sequential_decider(),
                                    initial_state=False, seed=9)
        assert plan.coverage.coverage == 1.0
        assert not plan.unresolved
        assert len(plan.vectors) == len(plan.growth)
        assert plan.growth == sorted(plan.growth)  # monotone

    def test_known_initial_state_needs_no_init_prefix(self):
        plan = sequential_test_plan(sequential_decider(),
                                    initial_state=False)
        assert plan.init_cycles == 0

    def test_x_state_initializes_self_clearing_network(self):
        # A shift register flushes X state from its input within its
        # depth; the pseudorandom prefix must discover that.
        plan = sequential_test_plan(shift_register(3), initial_state=None)
        assert 0 < plan.init_cycles
        assert plan.coverage.coverage == 1.0

    def test_plan_is_replayable(self):
        """Replaying the plan's vectors from the same initial state
        reproduces the reported toggle coverage."""
        from repro.testgen import measure_toggle_coverage

        network = sequential_decider()
        plan = sequential_test_plan(network, initial_state=False, seed=9)
        replay = measure_toggle_coverage(network, plan.vectors,
                                         initial_state=False)
        assert replay.coverage == plan.coverage.coverage
