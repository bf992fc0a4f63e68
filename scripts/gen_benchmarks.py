#!/usr/bin/env python3
"""Generate the small benchmark targets (PLA) and seed netlists (BLIF).

Each benchmark is a classic small combinational function, stated as one
expression of the input word apart from its seed; the seed netlist is a
hand-derived two-input-gate implementation built through
tscsynth.netlist.Builder.  Every seed is simulated against its target table
before anything is written, so benchmarks/ is consistent by construction.

  mult2    2-bit multiplier, 4 in / 4 out, 7 gates
  b1       full adder with its internal xor/and tapped out, 3 in / 4 out, 5 gates
  c17      the classic 6-NAND netlist, 5 in / 2 out
  cm82a    2-bit ripple adder with carry in/out, 5 in / 3 out, 10 gates
  cm42a    BCD-to-decimal decoder (active-low), 4 in / 10 out, 17 gates
  cm138a   3-to-8 decoder with three enables (active-low), 6 in / 8 out, 16 gates
  decod    4-to-16 decoder with enable (active-high), 5 in / 16 out, 28 gates
  rd53     ones count of 5 inputs, 5 in / 3 out
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tscsynth.formats import TargetSpec, render_blif, render_pla
from tscsynth.netlist import (
    Builder, Circuit, TT_AND, TT_GT, TT_LT, TT_NAND, TT_NOR, TT_OR, TT_XOR,
)
from tscsynth.sim import simulate


def _target(r: int, q: int, outputs: Callable[[int], int]) -> TargetSpec:
    """The target over r inputs whose output j is bit j of outputs(w) at each
    input word w (x_0 is bit 0 of w)."""
    words = [outputs(w) for w in range(1 << r)]
    return TargetSpec(r, q, tuple(
        sum((y >> j & 1) << w for w, y in enumerate(words)) for j in range(q)
    ))


def mult2() -> tuple[Circuit, TargetSpec]:
    # Inputs a0 a1 b0 b1; outputs p0..p3 = (a1 a0) * (b1 b0).
    bld = Builder(4)
    p0 = bld.gate(TT_AND, 0, 2)
    t1 = bld.gate(TT_AND, 1, 2)
    t2 = bld.gate(TT_AND, 0, 3)
    p1 = bld.gate(TT_XOR, t1, t2)
    t3 = bld.gate(TT_AND, 1, 3)
    p2 = bld.gate(TT_GT, t3, p0)  # carry into bit 3 equals p0 AND t3
    p3 = bld.gate(TT_AND, p0, t3)
    circuit = bld.circuit([p0, p1, p2, p3])
    return circuit, _target(4, 4, lambda w: (w & 3) * (w >> 2))


def b1() -> tuple[Circuit, TargetSpec]:
    # Full adder over (a, b, cin) with the internal a^b and a&b also exposed.
    bld = Builder(3)
    x = bld.gate(TT_XOR, 0, 1)
    s = bld.gate(TT_XOR, x, 2)
    n = bld.gate(TT_AND, 0, 1)
    t = bld.gate(TT_AND, x, 2)
    cy = bld.gate(TT_OR, n, t)
    circuit = bld.circuit([s, cy, x, n])
    # The ones count of (a, b, cin) is cy s; then a ^ b and a & b.
    return circuit, _target(
        3, 4, lambda w: bin(w).count("1") | ((w ^ w >> 1) & 1) << 2 | (w & w >> 1 & 1) << 3
    )


def c17() -> tuple[Circuit, TargetSpec]:
    bld = Builder(5)
    g0 = bld.gate(TT_NAND, 0, 2)
    g1 = bld.gate(TT_NAND, 2, 3)
    g2 = bld.gate(TT_NAND, 1, g1)
    g3 = bld.gate(TT_NAND, g1, 4)
    o0 = bld.gate(TT_NAND, g0, g2)
    o1 = bld.gate(TT_NAND, g2, g3)
    circuit = bld.circuit([o0, o1])

    def outputs(w: int) -> int:
        x0, x1, x2, x3, x4 = (w >> j & 1 for j in range(5))
        n23 = 1 ^ (x2 & x3)
        return x0 & x2 | x1 & n23 | (n23 & (x1 | x4)) << 1

    return circuit, _target(5, 2, outputs)


def cm82a() -> tuple[Circuit, TargetSpec]:
    # Inputs cin a1 b1 a2 b2; outputs s1 s2 cout.
    bld = Builder(5)
    x1 = bld.gate(TT_XOR, 1, 2)
    s1 = bld.gate(TT_XOR, x1, 0)
    n1 = bld.gate(TT_AND, 1, 2)
    t1 = bld.gate(TT_AND, x1, 0)
    c1 = bld.gate(TT_OR, n1, t1)
    x2 = bld.gate(TT_XOR, 3, 4)
    s2 = bld.gate(TT_XOR, x2, c1)
    n2 = bld.gate(TT_AND, 3, 4)
    t2 = bld.gate(TT_AND, x2, c1)
    c2 = bld.gate(TT_OR, n2, t2)
    circuit = bld.circuit([s1, s2, c2])
    # cin + a + b, with a = (a2 a1) and b = (b2 b1).
    return circuit, _target(5, 3, lambda w: bin(w & 7).count("1") + 2 * bin(w >> 3).count("1"))


def _pair_decoders(bld: Builder, lo: int, hi: int) -> list[int]:
    # Minterms of a 2-bit value (lo, hi): 00, 01, 10, 11.
    return [
        bld.gate(TT_NOR, lo, hi),
        bld.gate(TT_GT, lo, hi),
        bld.gate(TT_LT, lo, hi),
        bld.gate(TT_AND, lo, hi),
    ]


def cm42a() -> tuple[Circuit, TargetSpec]:
    # BCD-to-decimal decoder, outputs active low; inputs a b c d (a = LSB).
    # Digits stop at 9, so the (c, d) = (1, 1) minterm is never needed.
    bld = Builder(4)
    ab = _pair_decoders(bld, 0, 1)
    cd = [
        bld.gate(TT_NOR, 2, 3),
        bld.gate(TT_GT, 2, 3),
        bld.gate(TT_LT, 2, 3),
    ]
    outs = [bld.gate(TT_NAND, ab[n & 3], cd[n >> 2]) for n in range(10)]
    circuit = bld.circuit(outs)
    # Output n is low at word n only.
    return circuit, _target(4, 10, lambda w: 0x3FF & ~(1 << w))


def cm138a() -> tuple[Circuit, TargetSpec]:
    # 3-to-8 decoder with enables g1 (active high), g2a/g2b (active low);
    # inputs a b c g1 g2a g2b, outputs active low.
    bld = Builder(6)
    e1 = bld.gate(TT_NOR, 4, 5)
    en = bld.gate(TT_AND, 3, e1)
    ab = _pair_decoders(bld, 0, 1)
    mc0 = bld.gate(TT_GT, en, 2)
    mc1 = bld.gate(TT_AND, en, 2)
    mc = [mc0, mc1]
    outs = [bld.gate(TT_NAND, ab[n & 3], mc[n >> 2]) for n in range(8)]
    circuit = bld.circuit(outs)
    # Enabled when (g1 g2a g2b) = (1 0 0); then output (c b a) is low.
    return circuit, _target(6, 8, lambda w: 0xFF ^ (w >> 3 == 1) << (w & 7))


def decod() -> tuple[Circuit, TargetSpec]:
    # 4-to-16 one-hot decoder gated by an enable input (active high outputs).
    bld = Builder(5)
    ab = _pair_decoders(bld, 0, 1)
    cd = _pair_decoders(bld, 2, 3)
    abe = [bld.gate(TT_AND, t, 4) for t in ab]
    outs = [bld.gate(TT_AND, abe[n & 3], cd[n >> 2]) for n in range(16)]
    circuit = bld.circuit(outs)
    # Output (d c b a) is high when the enable is.
    return circuit, _target(5, 16, lambda w: (w >> 4) << (w & 15))


def rd53() -> tuple[Circuit, TargetSpec]:
    # Ones count of five inputs as a 3-bit number, built from two full adders
    # plus a half adder chain.
    bld = Builder(5)

    def full_adder(a, b, c):
        x = bld.gate(TT_XOR, a, b)
        s = bld.gate(TT_XOR, x, c)
        n = bld.gate(TT_AND, a, b)
        t = bld.gate(TT_AND, x, c)
        cy = bld.gate(TT_OR, n, t)
        return s, cy

    s1, c1 = full_adder(0, 1, 2)
    s2, c2 = full_adder(s1, 3, 4)
    y1 = bld.gate(TT_XOR, c1, c2)
    y2 = bld.gate(TT_AND, c1, c2)
    circuit = bld.circuit([s2, y1, y2])
    return circuit, _target(5, 3, lambda w: bin(w).count("1"))


BENCHMARKS = {
    "mult2": mult2,
    "b1": b1,
    "c17": c17,
    "cm82a": cm82a,
    "cm42a": cm42a,
    "cm138a": cm138a,
    "decod": decod,
    "rd53": rd53,
}


def main() -> int:
    out_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    out_dir.mkdir(exist_ok=True)
    for name, build in BENCHMARKS.items():
        circuit, target = build()
        resp = simulate(circuit)
        if resp.outputs != target.columns:
            raise SystemExit(f"{name}: seed netlist does not match its target table")
        (out_dir / f"{name}.pla").write_text(render_pla(target), encoding="utf-8")
        (out_dir / f"{name}.blif").write_text(
            render_blif(circuit, model=name), encoding="utf-8"
        )
        print(f"{name}: {circuit.r} in / {circuit.q} out, {len(circuit.tt)} gates")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
