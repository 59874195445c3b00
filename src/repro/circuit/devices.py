"""Nonlinear semiconductor devices: diode and Ebers-Moll bipolar transistors.

The paper's circuits are built entirely from NPN bipolar transistors and
diode-connected transistors in a "VBE = 900 mV" technology.  The transport
form of the Ebers-Moll model captures everything the paper relies on:

* exponential junction turn-on (the detector thresholds of sections 6.1/6.2
  are soft exponential thresholds, not comparator edges);
* finite forward beta (the comparator input bias current that motivates the
  R0 load resistor of variant 3 is ``I_tail / beta``);
* reverse conduction (a collector-emitter *pipe* drags the collector low
  enough that the base-collector junction matters);
* junction capacitance (gate delay and the high-frequency roll-off of the
  excursion in Fig. 5 come from the output pole).

All junction evaluations share :func:`junction_current`, which linearly
extrapolates the exponential above ``MAX_EXP_ARG`` to keep Newton iterations
finite, and :func:`pnjlim`, the SPICE3 junction-voltage limiting rule.

Stamping convention: a device reports, for each terminal, the current
``i_op`` flowing *into* the device at the linearisation point, the partial
derivatives of that current with respect to the touching node voltages, and
``bias = sum_k g_k * v_k,op`` evaluated at the (possibly limited)
linearisation point; see ``MnaStamper.nonlinear_current``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from .netlist import Component

#: Thermal voltage kT/q at 300 K, volts.
THERMAL_VOLTAGE = 0.025852

#: Nominal device temperature in Celsius (300.0 K).
TNOM_C = 26.85

#: Silicon bandgap (eV) and saturation-current temperature exponent used
#: by :func:`isat_temperature_factor`.
BANDGAP_EV = 1.11
XTI = 3.0

#: Beyond this argument the junction exponential continues linearly.
#: 60 leaves headroom for cold-corner operation (VBE/VT reaches ~50 at
#: -40 °C) while keeping currents and conductances finite for any Newton
#: iterate.
MAX_EXP_ARG = 60.0


def thermal_voltage(temperature_c: float = TNOM_C) -> float:
    """kT/q at ``temperature_c`` (Celsius)."""
    return THERMAL_VOLTAGE * (temperature_c + 273.15) / 300.0


def isat_temperature_factor(temperature_c: float,
                            tnom_c: float = TNOM_C) -> float:
    """Saturation-current scaling Is(T)/Is(Tnom).

    The SPICE temperature law ``(T/Tnom)^XTI * exp(q*EG/k * (1/Tnom-1/T))``
    — this is what makes VBE at fixed current *fall* by ~2 mV/°C, the
    dominant bipolar temperature effect.
    """
    t = temperature_c + 273.15
    tnom = tnom_c + 273.15
    k_over_q = THERMAL_VOLTAGE / 300.0
    exponent = (BANDGAP_EV / k_over_q) * (1.0 / tnom - 1.0 / t)
    return (t / tnom) ** XTI * math.exp(exponent)


def junction_current(v: float, isat: float, nvt: float) -> Tuple[float, float]:
    """Diode current and small-signal conductance at junction voltage ``v``.

    Returns ``(i, g)`` for ``i = isat * (exp(v / nvt) - 1)`` with a
    C1-continuous linear extension above ``MAX_EXP_ARG * nvt`` so that a bad
    Newton iterate cannot overflow ``exp``.
    """
    arg = v / nvt
    if arg > MAX_EXP_ARG:
        peak = math.exp(MAX_EXP_ARG)
        i = isat * (peak * (1.0 + (arg - MAX_EXP_ARG)) - 1.0)
        g = isat * peak / nvt
    elif arg < -MAX_EXP_ARG:
        i = -isat
        g = isat / nvt * math.exp(-MAX_EXP_ARG)
    else:
        exp = math.exp(arg)
        i = isat * (exp - 1.0)
        g = isat * exp / nvt
    return i, g


def junction_current_vec(v: np.ndarray, isat: np.ndarray,
                         nvt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`junction_current` over device arrays.

    Evaluates every junction of a compiled device block in one batch,
    with the same three-regime C1-continuous extension as the scalar
    form so the compiled and legacy stamping paths agree to rounding.
    """
    arg = v / nvt
    clipped = np.minimum(np.maximum(arg, -MAX_EXP_ARG), MAX_EXP_ARG)
    exp = np.exp(clipped)
    i = isat * (exp - 1.0)
    g = isat * exp / nvt
    high = arg > MAX_EXP_ARG
    if high.any():
        peak = math.exp(MAX_EXP_ARG)
        i = np.where(high, isat * (peak * (1.0 + (arg - MAX_EXP_ARG)) - 1.0), i)
        g = np.where(high, isat * peak / nvt, g)
    return i, g


def pnjlim_vec(vnew: np.ndarray, vold: np.ndarray, nvt: np.ndarray,
               vcrit: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`pnjlim` over device arrays.

    Returns the (possibly) limited voltages and a boolean mask of the
    junctions that were limited; branch-for-branch identical to the
    scalar SPICE3 rule.
    """
    limited = (vnew > vcrit) & (np.abs(vnew - vold) > 2.0 * nvt)
    if not limited.any():
        return vnew, limited
    vnew = vnew.copy()
    with np.errstate(invalid="ignore", divide="ignore"):
        arg = 1.0 + (vnew - vold) / nvt
        from_old = np.where(arg > 0, vold + nvt * np.log(np.maximum(arg, 1e-300)),
                            vcrit)
        from_zero = nvt * np.log(np.maximum(vnew / nvt, 1e-300))
    vnew[limited] = np.where(vold > 0, from_old, from_zero)[limited]
    return vnew, limited


def critical_voltage(isat: float, nvt: float) -> float:
    """SPICE ``vcrit``: voltage of maximum curvature of the exponential."""
    return nvt * math.log(nvt / (math.sqrt(2.0) * isat))


def pnjlim(vnew: float, vold: float, nvt: float, vcrit: float) -> Tuple[float, bool]:
    """SPICE3 junction-voltage limiting.

    Returns the (possibly) limited voltage and whether limiting occurred.
    Newton must not declare convergence on an iteration where any junction
    was limited.
    """
    if vnew > vcrit and abs(vnew - vold) > 2.0 * nvt:
        if vold > 0:
            arg = 1.0 + (vnew - vold) / nvt
            if arg > 0:
                vnew = vold + nvt * math.log(arg)
            else:
                vnew = vcrit
        else:
            vnew = nvt * math.log(vnew / nvt)
        return vnew, True
    return vnew, False


class Diode(Component):
    """PN junction diode (``p`` anode, ``n`` cathode).

    In the detector load circuits the paper uses a diode-connected
    transistor as a non-linear resistance — "relatively high dynamic
    resistance at low currents ... low dynamic resistance at high currents";
    this element provides exactly that characteristic.
    """

    #: Compiled-stamping dispatch tag: devices carrying a known
    #: ``device_kind`` are evaluated in vectorised batches by
    #: :class:`repro.sim.mna.CompiledStamps`; anything else falls back to
    #: its own :meth:`stamp_nonlinear`.
    device_kind = "diode"

    def __init__(self, name: str, p: str, n: str, isat: float = 1e-16,
                 n_ideality: float = 1.0, cj: float = 0.0,
                 temperature_c: float = TNOM_C):
        super().__init__(name, {"p": p, "n": n})
        if isat <= 0:
            raise ValueError(f"{name}: saturation current must be positive")
        self.temperature_c = temperature_c
        self.isat = isat * isat_temperature_factor(temperature_c)
        self.nvt = n_ideality * thermal_voltage(temperature_c)
        self.cj = cj
        self._vcrit = critical_voltage(self.isat, self.nvt)
        self._v_last = 0.0

    def is_nonlinear(self) -> bool:
        return True

    def reset_state(self) -> None:
        self._v_last = 0.0

    def junctions(self) -> List[Tuple[str, str, float]]:
        return [(self.net("p"), self.net("n"), self._vcrit)]

    def dynamic_elements(self) -> List[Tuple[str, str, str, float]]:
        if self.cj > 0:
            return [("cj", self.net("p"), self.net("n"), self.cj)]
        return []

    def stamp_nonlinear(self, stamper, voltages) -> None:
        p, n = self.net("p"), self.net("n")
        v, limited = pnjlim(voltages(p) - voltages(n), self._v_last,
                            self.nvt, self._vcrit)
        if limited:
            stamper.mark_limited()
        self._v_last = v
        i, g = junction_current(v, self.isat, self.nvt)
        stamper.nonlinear_current(p, i, [(p, g), (n, -g)], bias=g * v)
        stamper.nonlinear_current(n, -i, [(p, -g), (n, g)], bias=-g * v)

    def operating_info(self, voltages, branch_current: Optional[float]) -> Dict[str, float]:
        v = voltages(self.net("p")) - voltages(self.net("n"))
        i, g = junction_current(v, self.isat, self.nvt)
        return {"v": v, "i": i, "g": g}


class Bjt(Component):
    """NPN bipolar transistor, Ebers-Moll transport model.

    Terminals ``c`` (collector), ``b`` (base), ``e`` (emitter).  Terminal
    currents are positive flowing *into* the device.  Parameters:

    ``isat``
        transport saturation current; together with the tail current this
        sets VBE (the paper's technology has VBE = 900 mV at the nominal
        gate current).
    ``beta_f`` / ``beta_r``
        forward / reverse current gains.
    ``cje`` / ``cjc``
        base-emitter / base-collector junction capacitances (constant).
    ``vaf``
        forward Early voltage; 0 disables base-width modulation (infinite
        output resistance, the default used by the calibrated CML cells).
    """

    #: Compiled-stamping dispatch tag (see :class:`Diode`).
    device_kind = "bjt"

    #: Clamp range of the Early factor (1 - vbc/vaf) to keep deep
    #: saturation well-posed.
    EARLY_FACTOR_MIN = 0.05
    EARLY_FACTOR_MAX = 10.0

    def __init__(self, name: str, c: str, b: str, e: str, *,
                 isat: float = 4e-19, beta_f: float = 200.0,
                 beta_r: float = 2.0, n_ideality: float = 1.0,
                 cje: float = 0.0, cjc: float = 0.0, vaf: float = 0.0,
                 temperature_c: float = TNOM_C):
        super().__init__(name, {"c": c, "b": b, "e": e})
        if isat <= 0 or beta_f <= 0 or beta_r <= 0:
            raise ValueError(f"{name}: isat and betas must be positive")
        if vaf < 0:
            raise ValueError(f"{name}: vaf must be non-negative")
        self.temperature_c = temperature_c
        self.isat = isat * isat_temperature_factor(temperature_c)
        self.beta_f = beta_f
        self.beta_r = beta_r
        self.nvt = n_ideality * thermal_voltage(temperature_c)
        self.cje = cje
        self.cjc = cjc
        self.vaf = vaf
        self._vcrit = critical_voltage(self.isat, self.nvt)
        self._vbe_last = 0.0
        self._vbc_last = 0.0

    def is_nonlinear(self) -> bool:
        return True

    def reset_state(self) -> None:
        self._vbe_last = 0.0
        self._vbc_last = 0.0

    def junctions(self) -> List[Tuple[str, str, float]]:
        b = self.net("b")
        return [(b, self.net("e"), self._vcrit), (b, self.net("c"), self._vcrit)]

    def dynamic_elements(self) -> List[Tuple[str, str, str, float]]:
        elements = []
        if self.cje > 0:
            elements.append(("cje", self.net("b"), self.net("e"), self.cje))
        if self.cjc > 0:
            elements.append(("cjc", self.net("b"), self.net("c"), self.cjc))
        return elements

    def currents(self, vbe: float, vbc: float) -> Dict[str, float]:
        """Terminal currents and junction conductances at ``(vbe, vbc)``.

        With a finite Early voltage the transport current scales with
        ``k = 1 - vbc/vaf`` (base-width modulation); ``dk`` is the partial
        of that factor w.r.t. vbc, needed by the Jacobian.
        """
        ide, gde = junction_current(vbe, self.isat, self.nvt)
        idc, gdc = junction_current(vbc, self.isat, self.nvt)
        if self.vaf > 0:
            k = 1.0 - vbc / self.vaf
            if k < self.EARLY_FACTOR_MIN:
                k, dk = self.EARLY_FACTOR_MIN, 0.0
            elif k > self.EARLY_FACTOR_MAX:
                k, dk = self.EARLY_FACTOR_MAX, 0.0
            else:
                dk = -1.0 / self.vaf
        else:
            k, dk = 1.0, 0.0
        ic = (ide - idc) * k - idc / self.beta_r
        ib = ide / self.beta_f + idc / self.beta_r
        return {"ic": ic, "ib": ib, "ie": -(ic + ib),
                "gde": gde, "gdc": gdc, "ide": ide, "idc": idc,
                "k_early": k, "dk_early": dk}

    def stamp_nonlinear(self, stamper, voltages) -> None:
        b, c, e = self.net("b"), self.net("c"), self.net("e")
        vb = voltages(b)
        vbe, lim_be = pnjlim(vb - voltages(e), self._vbe_last, self.nvt,
                             self._vcrit)
        vbc, lim_bc = pnjlim(vb - voltages(c), self._vbc_last, self.nvt,
                             self._vcrit)
        if lim_be or lim_bc:
            stamper.mark_limited()
        self._vbe_last = vbe
        self._vbc_last = vbc

        op = self.currents(vbe, vbc)
        gde, gdc = op["gde"], op["gdc"]
        k, dk = op["k_early"], op["dk_early"]

        # Partial derivatives of terminal currents w.r.t. (vb, vc, ve).
        #   Ic = (ide - idc) * k - idc / beta_r
        #   dIc/dVbe = gde * k
        #   dIc/dVbc = -gdc * k + (ide - idc) * dk - gdc / beta_r
        # Accumulated per *net*: a diode-connected transistor (b and c on
        # one net) must sum its vb and vc partials, not overwrite them.
        def by_net(*pairs: Tuple[str, float]) -> Dict[str, float]:
            accumulated: Dict[str, float] = {}
            for net, g in pairs:
                accumulated[net] = accumulated.get(net, 0.0) + g
            return accumulated

        dic_dvbc = (-gdc * k + (op["ide"] - op["idc"]) * dk
                    - gdc / self.beta_r)
        dic = by_net((b, gde * k + dic_dvbc), (c, -dic_dvbc),
                     (e, -gde * k))
        dib = by_net((b, gde / self.beta_f + gdc / self.beta_r),
                     (c, -gdc / self.beta_r), (e, -gde / self.beta_f))
        # Distinct nets in terminal order: a set would order them (and so
        # the stamps and the bias sum) by the string hash seed.
        die = {n: -(dic.get(n, 0.0) + dib.get(n, 0.0))
               for n in dict.fromkeys((b, c, e))}

        # Node voltages at the limited linearisation point.  With merged
        # terminals the limited junction voltages are consistent (a b-c
        # merge forces vbc = 0), so assignment order cannot conflict.
        node_op = {b: vb, c: vb - vbc, e: vb - vbe}
        for terminal_net, i_op, partials in (
            (c, op["ic"], dic), (b, op["ib"], dib), (e, op["ie"], die),
        ):
            bias = sum(g * node_op[n] for n, g in partials.items())
            stamper.nonlinear_current(terminal_net, i_op,
                                      list(partials.items()), bias=bias)

    def operating_info(self, voltages, branch_current: Optional[float]) -> Dict[str, float]:
        vbe = voltages(self.net("b")) - voltages(self.net("e"))
        vbc = voltages(self.net("b")) - voltages(self.net("c"))
        op = self.currents(vbe, vbc)
        return {"vbe": vbe, "vbc": vbc, "vce": vbe - vbc,
                "ic": op["ic"], "ib": op["ib"], "ie": op["ie"],
                "gm": op["gde"]}


class MultiEmitterBjt(Component):
    """NPN transistor with several emitters (Fig. 15 area optimization).

    Electrically this is N forward transport paths (one per emitter, each
    with the full ``isat``) sharing a single base-collector junction whose
    reverse transport current splits equally across the emitters.  Two
    single-emitter :class:`Bjt` devices wired in parallel at base and
    collector behave identically except for carrying two collector
    junctions; the dedicated element is what makes the area claim of
    section 6.5 concrete (one collector, one base, N emitters).

    Terminals are ``c``, ``b`` and ``e1`` ... ``eN``.
    """

    def __init__(self, name: str, c: str, b: str, emitters: List[str], *,
                 isat: float = 4e-19, beta_f: float = 200.0,
                 beta_r: float = 2.0, n_ideality: float = 1.0,
                 cje: float = 0.0, cjc: float = 0.0,
                 temperature_c: float = TNOM_C):
        if not emitters:
            raise ValueError(f"{name}: need at least one emitter")
        terminals = {"c": c, "b": b}
        terminals.update({f"e{i + 1}": net for i, net in enumerate(emitters)})
        super().__init__(name, terminals)
        self.n_emitters = len(emitters)
        self.temperature_c = temperature_c
        self.isat = isat * isat_temperature_factor(temperature_c)
        self.beta_f = beta_f
        self.beta_r = beta_r
        self.nvt = n_ideality * thermal_voltage(temperature_c)
        self.cje = cje
        self.cjc = cjc
        self._vcrit = critical_voltage(self.isat, self.nvt)
        self._vbe_last = [0.0] * self.n_emitters
        self._vbc_last = 0.0

    def emitter_terminals(self) -> List[str]:
        return [f"e{i + 1}" for i in range(self.n_emitters)]

    def is_nonlinear(self) -> bool:
        return True

    def reset_state(self) -> None:
        self._vbe_last = [0.0] * self.n_emitters
        self._vbc_last = 0.0

    def junctions(self) -> List[Tuple[str, str, float]]:
        b = self.net("b")
        result = [(b, self.net(t), self._vcrit) for t in self.emitter_terminals()]
        result.append((b, self.net("c"), self._vcrit))
        return result

    def dynamic_elements(self) -> List[Tuple[str, str, str, float]]:
        elements = []
        if self.cje > 0:
            for terminal in self.emitter_terminals():
                elements.append((f"cje_{terminal}", self.net("b"),
                                 self.net(terminal), self.cje))
        if self.cjc > 0:
            elements.append(("cjc", self.net("b"), self.net("c"), self.cjc))
        return elements

    def stamp_nonlinear(self, stamper, voltages) -> None:
        b, c = self.net("b"), self.net("c")
        emitter_nets = [self.net(t) for t in self.emitter_terminals()]
        vb = voltages(b)
        vbc, limited = pnjlim(vb - voltages(c), self._vbc_last, self.nvt,
                              self._vcrit)
        if limited:
            stamper.mark_limited()
        self._vbc_last = vbc
        idc, gdc = junction_current(vbc, self.isat, self.nvt)
        kr = 1.0 + 1.0 / self.beta_r
        share = 1.0 / self.n_emitters

        forward = []
        for index, e in enumerate(emitter_nets):
            vbe, limited = pnjlim(vb - voltages(e), self._vbe_last[index],
                                  self.nvt, self._vcrit)
            if limited:
                stamper.mark_limited()
            self._vbe_last[index] = vbe
            ide, gde = junction_current(vbe, self.isat, self.nvt)
            forward.append((e, vbe, ide, gde))

        node_op: Dict[str, float] = {b: vb, c: vb - vbc}
        for e, vbe, _ide, _gde in forward:
            node_op[e] = vb - vbe

        def stamp(net: str, i_op: float, partials: Dict[str, float]) -> None:
            bias = sum(g * node_op[n] for n, g in partials.items())
            stamper.nonlinear_current(net, i_op, list(partials.items()),
                                      bias=bias)

        # Collector: Ic = sum_j ide_j - idc * (1 + 1/beta_r)
        ic = sum(f[2] for f in forward) - idc * kr
        # Accumulate per net (b == c merges must sum, not overwrite).
        dic: Dict[str, float] = {}
        dic[b] = dic.get(b, 0.0) - kr * gdc
        dic[c] = dic.get(c, 0.0) + kr * gdc
        for e, _vbe, _ide, gde in forward:
            dic[b] += gde
            dic[e] = dic.get(e, 0.0) - gde
        stamp(c, ic, dic)

        # Base: Ib = sum_j ide_j / beta_f + idc / beta_r
        ib = sum(f[2] for f in forward) / self.beta_f + idc / self.beta_r
        dib: Dict[str, float] = {}
        dib[b] = dib.get(b, 0.0) + gdc / self.beta_r
        dib[c] = dib.get(c, 0.0) - gdc / self.beta_r
        for e, _vbe, _ide, gde in forward:
            dib[b] += gde / self.beta_f
            dib[e] = dib.get(e, 0.0) - gde / self.beta_f
        stamp(b, ib, dib)

        # Emitters: Ie_j = -ide_j * (1 + 1/beta_f) + idc / N
        kf = 1.0 + 1.0 / self.beta_f
        for e, _vbe, ide, gde in forward:
            ie = -ide * kf + idc * share
            die = {b: -gde * kf + gdc * share,
                   c: -gdc * share,
                   e: gde * kf}
            # When an emitter net coincides with b or c the entries merge.
            merged: Dict[str, float] = {}
            for n, g in die.items():
                merged[n] = merged.get(n, 0.0) + g
            stamp(e, ie, merged)

    def operating_info(self, voltages, branch_current: Optional[float]) -> Dict[str, float]:
        b = self.net("b")
        info: Dict[str, float] = {"vbc": voltages(b) - voltages(self.net("c"))}
        for terminal in self.emitter_terminals():
            vbe = voltages(b) - voltages(self.net(terminal))
            ide, _ = junction_current(vbe, self.isat, self.nvt)
            info[f"vb_{terminal}"] = vbe
            info[f"ide_{terminal}"] = ide
        return info
