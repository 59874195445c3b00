"""Tests for MISR signature analysis (BIST output compaction)."""

import pytest

from repro.testgen import (
    Misr,
    bist_session,
    full_adder,
    parity_tree,
    random_vectors,
    sequential_decider,
    shift_register,
)


class TestMisr:
    def test_deterministic(self):
        a = Misr(16)
        b = Misr(16)
        for bits in ([True, False], [False, False], [True, True]):
            a.clock(bits)
            b.clock(bits)
        assert a.signature == b.signature

    def test_sensitive_to_single_bit(self):
        a = Misr(16)
        b = Misr(16)
        a.clock([True, False])
        b.clock([False, False])
        assert a.signature != b.signature

    def test_sensitive_to_order(self):
        a = Misr(16)
        b = Misr(16)
        for bits in ([True], [False]):
            a.clock(bits)
        for bits in ([False], [True]):
            b.clock(bits)
        assert a.signature != b.signature

    def test_x_poisons_validity(self):
        misr = Misr(16)
        misr.clock([True, None])
        assert not misr.valid

    def test_width_validation(self):
        with pytest.raises(ValueError):
            Misr(width=12)
        misr = Misr(8)
        with pytest.raises(ValueError):
            misr.clock([False] * 9)

    def test_state_stays_in_width(self):
        misr = Misr(8)
        for i in range(100):
            misr.clock([bool(i & 1)] * 8)
            assert 0 <= misr.state < (1 << 8)


class TestBistSession:
    def test_golden_signature_reproducible(self):
        vectors = random_vectors(["a", "b", "cin"], 32, seed=2)
        golden1 = bist_session(full_adder(), vectors)
        golden2 = bist_session(full_adder(), vectors)
        assert golden1.matches(golden2)

    def test_sequential_bist(self):
        network = shift_register(4)
        vectors = random_vectors(["sin"], 64, seed=4)
        golden = bist_session(network, vectors)
        assert golden.valid

    def test_unknown_state_invalidates(self):
        network = sequential_decider()
        vectors = random_vectors(["go"], 8, seed=5)
        result = bist_session(network, vectors, initial_state=None)
        # Until initialization completes, outputs carry X: the signature
        # must refuse to vouch for the run (the ref-[13] requirement).
        assert not result.valid

    def test_no_outputs_rejected(self):
        from repro.testgen import LogicNetwork

        network = LogicNetwork()
        network.add_input("a")
        network.add_gate("G", "buffer", ["a"], "x")
        with pytest.raises(ValueError):
            bist_session(network, [{"a": True}])

    def test_observed_subset(self):
        network = parity_tree(4)
        vectors = random_vectors(network.primary_inputs, 16, seed=6)
        result = bist_session(network, vectors,
                              observed=[network.primary_outputs[0]])
        assert result.cycles == 16
        assert result.valid
