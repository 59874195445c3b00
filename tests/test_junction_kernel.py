"""Bitwise pins of the compiled junction kernel.

``CompiledStamps`` evaluates every diode and BJT junction as one vector
in one kernel shared by the serial ``eval_nonlinear`` and the batched
``eval_nonlinear_batch``.  :class:`ReferenceStamps` below is the earlier
three-call evaluation (diodes, then BJT base-emitter, then
base-collector, each with its own limiting and exponential call), kept
verbatim as the reference: the kernel must reproduce its matrix values,
RHS values, limited flag and updated limiting state bit for bit — at the
operating point, near it, and at iterates that trigger ``pnjlim``, the
``MAX_EXP_ARG`` linear extension and both Early-factor clamps, with and
without Early voltage.
"""

import numpy as np
import pytest

from repro.circuit import Bjt, Circuit, Diode, Resistor, VoltageSource
from repro.circuit.devices import (MAX_EXP_ARG, junction_current_vec,
                                   pnjlim_vec)
from repro.cml import NOMINAL, buffer_chain
from repro.dft import build_shared_monitor
from repro.sim import operating_point
from repro.sim.mna import (_conductance_pattern, _index_array,
                           _injection_pattern, structure_for)
from repro.sim.options import SimOptions


class ReferenceStamps:
    """The three-call junction evaluation the fused kernel replaced."""

    def __init__(self, structure):
        self.n = structure.n_unknowns
        self.diodes = [c for c in structure.nonlinear
                       if c.device_kind == "diode"]
        self.bjts = [c for c in structure.nonlinear
                     if c.device_kind == "bjt"]
        diodes, bjts = self.diodes, self.bjts
        self.d_p = _index_array(structure, [d.net("p") for d in diodes])
        self.d_n = _index_array(structure, [d.net("n") for d in diodes])
        (d_rows, d_cols, self.d_src,
         self.d_sign, _) = _conductance_pattern(self.d_p, self.d_n)
        (d_rhs_rows, self.d_rhs_src,
         self.d_rhs_sign) = _injection_pattern(self.d_n, self.d_p)
        self.q_b = _index_array(structure, [q.net("b") for q in bjts])
        self.q_c = _index_array(structure, [q.net("c") for q in bjts])
        self.q_e = _index_array(structure, [q.net("e") for q in bjts])
        rows9 = np.concatenate([self.q_c] * 3 + [self.q_b] * 3
                               + [self.q_e] * 3)
        cols9 = np.concatenate([self.q_b, self.q_c, self.q_e] * 3)
        keep9 = (rows9 >= 0) & (cols9 >= 0)
        self.q_vsel = np.nonzero(keep9)[0]
        rows3 = np.concatenate([self.q_c, self.q_b, self.q_e])
        keep3 = rows3 >= 0
        self.q_rhs_vsel = np.nonzero(keep3)[0]
        self.nl_rows = np.concatenate([d_rows, rows9[keep9]])
        self.nl_cols = np.concatenate([d_cols, cols9[keep9]])
        self.nl_rhs_rows = np.concatenate([d_rhs_rows, rows3[keep3]])

        self.d_isat = np.array([d.isat for d in diodes])
        self.d_nvt = np.array([d.nvt for d in diodes])
        self.d_vcrit = np.array([d._vcrit for d in diodes])
        self.q_isat = np.array([q.isat for q in bjts])
        self.q_nvt = np.array([q.nvt for q in bjts])
        self.q_vcrit = np.array([q._vcrit for q in bjts])
        self.q_bf = np.array([q.beta_f for q in bjts])
        self.q_br = np.array([q.beta_r for q in bjts])
        self.q_vaf = np.array([q.vaf for q in bjts])

    def split(self, limits):
        """(diode, base-emitter, base-collector) parts of a limiting
        state laid out as the kernel's junction vector."""
        nd, mq = len(self.diodes), len(self.bjts)
        return limits[:nd], limits[nd:nd + mq], limits[nd + mq:]

    def eval(self, x, limits):
        """``(mat, rhs, limited, limits')`` at iterate ``x``."""
        d_vlast, q_vbe_last, q_vbc_last = self.split(limits)
        n = self.n
        x_ext = np.empty(n + 1)
        x_ext[:n] = x
        x_ext[n] = 0.0

        limited = False
        if self.diodes:
            v_raw = x_ext[self.d_p] - x_ext[self.d_n]
            v, lim = pnjlim_vec(v_raw, d_vlast, self.d_nvt, self.d_vcrit)
            limited = bool(lim.any())
            d_vlast = v
            i, g = junction_current_vec(v, self.d_isat, self.d_nvt)
            d_mat = g[self.d_src] * self.d_sign
            d_rhs = (g * v - i)[self.d_rhs_src] * self.d_rhs_sign
        else:
            d_mat = np.empty(0)
            d_rhs = np.empty(0)

        if self.bjts:
            vb = x_ext[self.q_b]
            vbe, lim_be = pnjlim_vec(vb - x_ext[self.q_e], q_vbe_last,
                                     self.q_nvt, self.q_vcrit)
            vbc, lim_bc = pnjlim_vec(vb - x_ext[self.q_c], q_vbc_last,
                                     self.q_nvt, self.q_vcrit)
            limited = limited or bool(lim_be.any()) or bool(lim_bc.any())
            q_vbe_last = vbe
            q_vbc_last = vbc

            ide, gde = junction_current_vec(vbe, self.q_isat, self.q_nvt)
            idc, gdc = junction_current_vec(vbc, self.q_isat, self.q_nvt)

            vaf = self.q_vaf
            has_early = vaf > 0
            vaf_div = np.where(has_early, vaf, 1.0)
            k_raw = 1.0 - vbc / vaf_div
            kmin, kmax = 0.05, 10.0
            k = np.clip(k_raw, kmin, kmax)
            dk = np.where((k_raw >= kmin) & (k_raw <= kmax),
                          -1.0 / vaf_div, 0.0)
            k = np.where(has_early, k, 1.0)
            dk = np.where(has_early, dk, 0.0)

            bf, br = self.q_bf, self.q_br
            ic = (ide - idc) * k - idc / br
            ib = ide / bf + idc / br
            ie = -(ic + ib)
            dic_dvbc = -gdc * k + (ide - idc) * dk - gdc / br

            buf = np.empty((9, len(self.bjts)))
            buf[0] = gde * k + dic_dvbc
            buf[1] = -dic_dvbc
            buf[2] = -gde * k
            buf[3] = gde / bf + gdc / br
            buf[4] = -gdc / br
            buf[5] = -gde / bf
            buf[6] = -(buf[0] + buf[3])
            buf[7] = -(buf[1] + buf[4])
            buf[8] = -(buf[2] + buf[5])
            q_mat = buf.ravel()[self.q_vsel]

            vc_op = vb - vbc
            ve_op = vb - vbe
            rbuf = np.empty((3, len(self.bjts)))
            rbuf[0] = buf[0] * vb + buf[1] * vc_op + buf[2] * ve_op - ic
            rbuf[1] = buf[3] * vb + buf[4] * vc_op + buf[5] * ve_op - ib
            rbuf[2] = buf[6] * vb + buf[7] * vc_op + buf[8] * ve_op - ie
            q_rhs = rbuf.ravel()[self.q_rhs_vsel]
        else:
            q_mat = np.empty(0)
            q_rhs = np.empty(0)

        return (np.concatenate([d_mat, q_mat]),
                np.concatenate([d_rhs, q_rhs]), limited,
                np.concatenate([d_vlast, q_vbe_last, q_vbc_last]))

    def junction_voltages(self, x):
        """Unlimited junction voltages at ``x`` in kernel order."""
        x_ext = np.append(x, 0.0)
        return np.concatenate([x_ext[self.d_p] - x_ext[self.d_n],
                               x_ext[self.q_b] - x_ext[self.q_e],
                               x_ext[self.q_b] - x_ext[self.q_c]])

    def nvt(self):
        return np.concatenate([self.d_nvt, self.q_nvt, self.q_nvt])


def _bits(array) -> bytes:
    array = np.asarray(array)
    return array.dtype.str.encode() + bytes(str(array.shape), "ascii") \
        + array.tobytes()


def _chain_with_monitor():
    chain = buffer_chain(NOMINAL, 8, 100e6)
    build_shared_monitor(chain.circuit, chain.output_nets, tech=NOMINAL)
    return chain.circuit


def _mixed_devices():
    """Diodes beside BJTs, three of them with a finite Early voltage, one
    diode-connected (b and c on one net) and junctions to ground."""
    circuit = Circuit("mixed-junctions")
    circuit.add(VoltageSource("VCC", "vcc", "0", 3.3))
    circuit.add(VoltageSource("VIN", "in", "0", 1.2))
    circuit.add(Resistor("RB", "in", "b1", 1e3))
    circuit.add(Bjt("Q1", "c1", "b1", "e1", isat=1e-17, vaf=40.0))
    circuit.add(Resistor("RE", "e1", "0", 500.0))
    circuit.add(Resistor("RC", "vcc", "c1", 2e3))
    circuit.add(Diode("D1", "vcc", "c1", isat=1e-15))
    circuit.add(Bjt("Q2", "vcc", "c1", "out", isat=1e-17))
    circuit.add(Resistor("RO", "out", "0", 1e3))
    circuit.add(Diode("D2", "out", "0", isat=1e-16))
    circuit.add(Resistor("R3", "vcc", "d3", 5e3))
    circuit.add(Bjt("Q3", "d3", "d3", "0", isat=1e-17, vaf=20.0))
    circuit.add(Diode("D3", "d3", "d4", isat=1e-16, n_ideality=1.5))
    circuit.add(Resistor("R4", "d4", "0", 2e3))
    circuit.add(Resistor("R5", "vcc", "c5", 1e4))
    circuit.add(Bjt("Q5", "c5", "d4", "0", isat=1e-17, vaf=5.0))
    return circuit


CIRCUITS = {"chain8-monitor": _chain_with_monitor,
            "mixed-devices": _mixed_devices}


def _iterates(reference, x_op, rng):
    """``(label, x, limits)`` cases covering every kernel branch."""
    v_op = reference.junction_voltages(x_op)
    nvt = reference.nvt()
    cases = [("operating-point", x_op, v_op.copy()),
             ("reset-state", x_op, np.zeros_like(v_op))]
    for scale in (1e-6, 1e-3, 3e-2):
        for _ in range(8):
            x = x_op + rng.normal(0.0, scale, x_op.shape)
            cases.append((f"perturbed-{scale:g}", x, v_op.copy()))
    for _ in range(12):
        # Large steps from the settled state: pnjlim limits them.
        x = x_op + rng.normal(0.0, 0.6, x_op.shape)
        cases.append(("pnjlim", x, v_op.copy()))
    for scale, label in ((1.5, "max-exp-arg"), (150.0, "early-clamp")):
        for _ in range(12):
            # Junctions biased past MAX_EXP_ARG * nvt with a limiting
            # memory close enough that pnjlim lets them through: the
            # exponential's linear extension and, at the larger scale,
            # base-collector voltages beyond both Early-factor clamps.
            x = x_op + rng.normal(0.0, scale, x_op.shape)
            v = reference.junction_voltages(x)
            limits = v - rng.uniform(0.0, 1.9, v.shape) * nvt
            cases.append((label, x, limits))
    return cases


@pytest.fixture(scope="module", params=sorted(CIRCUITS))
def kernel_case(request):
    circuit = CIRCUITS[request.param]()
    solution = operating_point(circuit, SimOptions())
    structure = structure_for(circuit)
    stamps = structure.compiled()
    stamps.refresh()
    reference = ReferenceStamps(structure)
    rng = np.random.default_rng(20260117)
    return request.param, stamps, reference, _iterates(reference,
                                                       solution.x, rng)


def test_mixed_circuit_covers_every_device_branch():
    structure = structure_for(_mixed_devices())
    reference = ReferenceStamps(structure)
    assert len(reference.diodes) == 3 and len(reference.bjts) == 4
    assert (reference.q_vaf > 0).sum() == 3
    assert (reference.q_vaf == 0).sum() == 1


def test_stamp_pattern_matches_reference(kernel_case):
    _, stamps, reference, _ = kernel_case
    np.testing.assert_array_equal(stamps.nl_rows, reference.nl_rows)
    np.testing.assert_array_equal(stamps.nl_cols, reference.nl_cols)
    np.testing.assert_array_equal(stamps.nl_rhs_rows, reference.nl_rhs_rows)


def test_cases_reach_limiting_and_exponential_extension(kernel_case):
    _, _, reference, cases = kernel_case
    nvt = reference.nvt()
    n_limited = sum(reference.eval(x, limits)[2] for _, x, limits in cases)
    n_extended = 0
    for _, x, limits in cases:
        v = reference.eval(x, limits)[3]
        n_extended += int(np.count_nonzero(v / nvt > MAX_EXP_ARG))
    assert n_limited >= 12
    assert n_extended >= 12


def test_cases_reach_both_early_factor_clamps():
    circuit = _mixed_devices()
    solution = operating_point(circuit, SimOptions())
    reference = ReferenceStamps(structure_for(circuit))
    cases = _iterates(reference, solution.x, np.random.default_rng(20260117))
    early = reference.q_vaf > 0
    k_raw = np.concatenate([
        1.0 - reference.split(reference.eval(x, limits)[3])[2][early]
        / reference.q_vaf[early] for _, x, limits in cases])
    assert np.count_nonzero(k_raw < Bjt.EARLY_FACTOR_MIN) >= 2
    assert np.count_nonzero(k_raw > Bjt.EARLY_FACTOR_MAX) >= 2


def test_serial_kernel_bitwise_equals_reference(kernel_case):
    name, stamps, reference, cases = kernel_case
    for label, x, limits in cases:
        stamps._limits = limits.copy()
        mat, rhs, limited = stamps.eval_nonlinear(x)
        ref_mat, ref_rhs, ref_limited, ref_limits = reference.eval(x, limits)
        where = f"{name}/{label}"
        assert _bits(mat) == _bits(ref_mat), where
        assert _bits(rhs) == _bits(ref_rhs), where
        assert limited is ref_limited, where
        assert _bits(stamps.snapshot_limits()) == _bits(ref_limits), where


def test_batched_kernel_rows_bitwise_equal_reference(kernel_case):
    name, stamps, reference, cases = kernel_case
    X = np.stack([x for _, x, _ in cases])
    limits = np.stack([lim for _, _, lim in cases])
    mat, rhs, limited, new_limits = stamps.eval_nonlinear_batch(
        X, limits.copy())
    assert limited.shape == (len(cases),)
    for row, (label, x, lim) in enumerate(cases):
        ref_mat, ref_rhs, ref_limited, ref_limits = reference.eval(x, lim)
        where = f"{name}/{label}/row {row}"
        assert _bits(mat[row]) == _bits(ref_mat), where
        assert _bits(rhs[row]) == _bits(ref_rhs), where
        assert bool(limited[row]) is ref_limited, where
        assert _bits(new_limits[row]) == _bits(ref_limits), where


def test_batch_of_one_matches_serial(kernel_case):
    _, stamps, _, cases = kernel_case
    _, x, limits = cases[-1]
    stamps._limits = limits.copy()
    mat, rhs, limited = stamps.eval_nonlinear(x)
    b_mat, b_rhs, b_limited, b_limits = stamps.eval_nonlinear_batch(
        x[None, :], limits[None, :])
    assert _bits(b_mat[0]) == _bits(mat)
    assert _bits(b_rhs[0]) == _bits(rhs)
    assert bool(b_limited[0]) is limited
    assert _bits(b_limits[0]) == _bits(stamps.snapshot_limits())
