"""Fault-equivalence collapsing and vector-set compaction.

Collapsing claims *exact* equivalence — every pair of faults it puts in
one class must be indistinguishable at the observed nets for every
input vector.  That claim is checked here by exhaustive simulation on
small seeded networks.  Compaction claims it never loses a detected
fault; the detect matrix before and after must agree.
"""

import random

import pytest

from repro.testgen import (LogicNetwork, collapse_faults,
                           enumerate_stuck_faults, exhaustive_vectors,
                           fault_detect_matrix, full_adder, greedy_compact,
                           random_network)

SWEEP_SEEDS = range(6)


def _network(seed):
    rng = random.Random(seed)
    return random_network(rng, n_gates=rng.randint(5, 12),
                          n_inputs=rng.randint(3, 6),
                          name=f"collapse{seed}")


def _detect_signature(network, fault, vectors, observed):
    """Which (vector, observed net) pairs expose ``fault`` — the full
    behavioural fingerprint equivalence must preserve."""
    masks = {}
    for net in observed:
        mask = fault_detect_matrix(network, vectors, faults=[fault],
                                   observed=[net])[fault]
        masks[net] = mask
    return masks


class TestEquivalenceCollapsing:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_classes_are_exact(self, seed):
        network = _network(seed)
        vectors = list(exhaustive_vectors(network.primary_inputs))
        observed = network.primary_outputs
        classes = collapse_faults(network)
        for rep, members in classes.classes.items():
            reference = _detect_signature(network, rep, vectors, observed)
            for member in members:
                assert _detect_signature(network, member, vectors,
                                         observed) == reference, \
                    f"{member.describe()} not equivalent to " \
                    f"{rep.describe()}"

    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_collapsing_partitions_the_fault_list(self, seed):
        network = _network(seed)
        faults = enumerate_stuck_faults(network)
        classes = collapse_faults(network)
        members = [f for rep in classes.representatives
                   for f in classes.classes[rep]]
        assert sorted(members, key=lambda f: (f.net, f.value)) == \
            sorted(faults, key=lambda f: (f.net, f.value))
        assert len(set(members)) == len(members)
        for fault in faults:
            assert classes.class_of(fault) in classes.representatives

    def test_observed_nets_are_never_collapsed_through(self):
        """A detector on the AND input tells sa0 on the input apart
        from sa0 on the output, so observation must block the merge."""
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate("G", "and2", ["a", "b"], "y")
        net.add_output("y")
        merged = collapse_faults(net)
        kept = collapse_faults(net, observed=net.signals())
        assert len(kept.representatives) > len(merged.representatives)
        assert all(len(m) == 1 for m in kept.classes.values())

    def test_and_gate_textbook_collapse(self):
        # a-sa0, b-sa0 and y-sa0 of an AND are one class.
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_gate("G", "and2", ["a", "b"], "y")
        net.add_output("y")
        classes = collapse_faults(net)
        from repro.testgen import StuckFault
        rep = classes.class_of(StuckFault("y", False))
        assert classes.class_of(StuckFault("a", False)) == rep
        assert classes.class_of(StuckFault("b", False)) == rep
        # ...but the sa1 faults stay distinct from each other.
        assert classes.class_of(StuckFault("a", True)) != \
            classes.class_of(StuckFault("b", True))


class TestVectorCompaction:
    @pytest.mark.parametrize("seed", SWEEP_SEEDS)
    def test_detected_fault_set_is_preserved(self, seed):
        network = _network(seed)
        rng = random.Random(seed + 100)
        vectors = [{pi: bool(rng.getrandbits(1))
                    for pi in network.primary_inputs}
                   for _ in range(48)]
        before = fault_detect_matrix(network, vectors)
        compacted = [vectors[i]
                     for i in greedy_compact(before, len(vectors))]
        after = fault_detect_matrix(network, compacted)
        assert {f for f, m in before.items() if m} == \
            {f for f, m in after.items() if m}
        assert len(compacted) <= len(vectors)

    def test_compaction_actually_shrinks_redundant_sets(self):
        network = full_adder()
        vectors = list(exhaustive_vectors(network.primary_inputs)) * 3
        compacted = greedy_compact(fault_detect_matrix(network, vectors),
                                   len(vectors))
        assert len(compacted) < len(set(map(
            lambda v: tuple(sorted(v.items())), vectors)))

    def test_empty_vector_set(self):
        assert greedy_compact(fault_detect_matrix(full_adder(), []), 0) == []
