"""Netlist and target-function text formats: PLA, BLIF, native JSON, DOT.

parse_blif builds a Circuit through netlist.Builder, read_native through
Circuit.from_arrays; the writers read its arrays (tt, src_a, src_b, outputs,
rails).  A signal is "x<j>" (input j) or "g<k>" (gate k): index j or r + k.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .netlist import GATE_NAMES, Builder, Circuit, signal_index
from .sim import MAX_INPUTS, full_mask, input_patterns


class ParseError(ValueError):
    pass


def _check_inputs(r: int, what: str) -> None:
    if r > MAX_INPUTS:
        raise ParseError(f"{what} has {r} inputs; at most {MAX_INPUTS} are supported")


@dataclass(frozen=True)
class TargetSpec:
    """Expected responses for q outputs over all 2**r input words.

    Columns are packed integers (bit w = desired value at word w, x_0 least
    significant input).
    """

    r: int
    q: int
    columns: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.q:
            raise ValueError("column count does not match q")
        full = full_mask(self.r)
        for col in self.columns:
            if not 0 <= col <= full:
                raise ValueError("target column does not fit 2**r words")


def _logical_lines(text: str) -> list[str]:
    """Comment-stripped, backslash-continued, non-empty lines."""
    lines: list[str] = []
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        lines.append(pending + line)
        pending = ""
    if pending.strip():
        lines.append(pending.strip())
    return lines


# PLA .type values under which a cube's '1' outputs are on-set words.
_ON_SET_TYPES = ("f", "fd", "fr", "fdr")


def parse_pla(text: str) -> TargetSpec:
    """Espresso-style PLA subset: .i/.o, optional .ilb/.ob/.p/.type, cubes, .e.

    Output columns OR together the input predicates of every cube asserting
    them with '1'; '0' and '~' leave a cube's contribution out, and words not
    covered by any cube are 0.  Output don't-cares are rejected.  So only the
    .type values whose '1' outputs are the on-set are read (f, fd, fr, fdr);
    under r, d and dr they are not, and those are rejected.  Under fr and fdr
    '0' outputs are the off-set: a word in neither set reads 0, which is one
    of the functions the file allows, and a word in both is rejected, as
    espresso rejects it.
    """
    counts: dict[str, int] = {}
    pla_type = None
    cubes: list[tuple[str, str]] = []
    ignorable = {"p", "ilb", "ob", "e", "end"}
    for line in _logical_lines(text):
        if line.startswith("."):
            parts = line[1:].split()
            key = parts[0] if parts else ""
            if key in ("i", "o"):
                if len(parts) != 2 or not parts[1].isdecimal():
                    raise ParseError(f"PLA .{key} needs one count: {line!r}")
                if key in counts:
                    raise ParseError(f"PLA .{key} is given twice")
                counts[key] = int(parts[1])
            elif key == "type":
                if len(parts) != 2 or parts[1] not in _ON_SET_TYPES:
                    raise ParseError(
                        f"PLA .type must be one of {', '.join(_ON_SET_TYPES)}: {line!r}")
                if pla_type is not None:
                    raise ParseError("PLA .type is given twice")
                pla_type = parts[1]
            elif key in ignorable:
                if key in ("e", "end"):
                    break
            else:
                raise ParseError(f"unsupported PLA directive: .{key}")
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"bad cube line: {line!r}")
        cubes.append((fields[0], fields[1]))

    r, q = counts.get("i"), counts.get("o")
    if r is None or q is None:
        raise ParseError("PLA is missing .i or .o")
    if r < 1 or q < 1:
        raise ParseError("PLA needs at least one input and one output")
    _check_inputs(r, "PLA")

    xs = input_patterns(r)
    full = full_mask(r)
    columns = [0] * q
    off_sets = [0] * q
    for in_part, out_part in cubes:
        if len(in_part) != r or len(out_part) != q:
            raise ParseError(f"cube width does not match .i/.o: {in_part} {out_part}")
        mask = full
        for j, ch in enumerate(in_part):
            if ch == "1":
                mask &= xs[j]
            elif ch == "0":
                mask &= xs[j] ^ full
            elif ch != "-":
                raise ParseError(f"bad input character {ch!r} in cube")
        for j, ch in enumerate(out_part):
            if ch == "1":
                columns[j] |= mask
            elif ch == "0":
                off_sets[j] |= mask
            elif ch == "-":
                raise ParseError("output don't-cares are unsupported")
            elif ch != "~":
                raise ParseError(f"bad output character {ch!r} in cube")
    if pla_type in ("fr", "fdr"):
        for j, (on, off) in enumerate(zip(columns, off_sets)):
            if on & off:
                word = format((on & off).bit_length() - 1, f"0{r}b")[::-1]  # x_0 first
                raise ParseError(f"PLA output {j} has word {word} in both its on-set and off-set")
    return TargetSpec(r=r, q=q, columns=tuple(columns))


def render_pla(target: TargetSpec) -> str:
    """Completely specified PLA with one cube per word carrying any 1."""
    lines = [f".i {target.r}", f".o {target.q}"]
    for w in range(1 << target.r):
        outs = "".join(str((col >> w) & 1) for col in target.columns)
        if "1" not in outs:
            continue
        bits = "".join(str((w >> j) & 1) for j in range(target.r))
        lines.append(f"{bits} {outs}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


# The input pairs (a, b) that a .names row's literal admits, as a mask over a
# gate's table (bit 2a + b): on the first source '1' admits 0b1100, '0'
# 0b0011 and '-' all four; on the second source 0b1010, 0b0101 and all four.
_LITERALS = ({"1": 0b1100, "0": 0b0011, "-": 0b1111},
             {"1": 0b1010, "0": 0b0101, "-": 0b1111})


def parse_blif(text: str) -> Circuit:
    """BLIF subset: .model/.inputs/.outputs/.names (fan-in <= 2)/.end.

    Each .names block becomes one two-input gate; one-input and constant
    blocks embed as degenerate two-input gates with unused sources tied to
    x_0.  Fan-in above two, undefined nets, redefinitions, cyclic
    definitions and blocks no output depends on are errors.
    """
    inputs: list[str] = []
    outputs: list[str] = []
    blocks: list[tuple[list[str], str, list[str]]] = []
    current: tuple[list[str], str, list[str]] | None = None
    for line in _logical_lines(text):
        if line.startswith("."):
            parts = line[1:].split()
            key = parts[0] if parts else ""
            if current is not None and key != "":
                blocks.append(current)
                current = None
            if key == "model":
                continue
            if key == "inputs":
                inputs.extend(parts[1:])
            elif key == "outputs":
                outputs.extend(parts[1:])
            elif key == "names":
                if len(parts) < 2:
                    raise ParseError("empty .names line")
                sources = parts[1:-1]
                if len(sources) > 2:
                    raise ParseError(
                        f"gate {parts[-1]!r} has fan-in {len(sources)}; "
                        "seed must be in two-input form"
                    )
                current = (sources, parts[-1], [])
            elif key == "end":
                break
            else:
                raise ParseError(f"unsupported BLIF directive: .{key}")
        else:
            if current is None:
                raise ParseError(f"cover row outside a .names block: {line!r}")
            current[2].append(line)
    if current is not None:
        blocks.append(current)

    if not inputs:
        raise ParseError("BLIF has no .inputs")
    _check_inputs(len(inputs), "BLIF")
    if not outputs:
        raise ParseError("BLIF has no .outputs")

    defined = {name: k for k, (_, name, _) in enumerate(blocks)}
    if len(defined) != len(blocks):
        raise ParseError("a net is defined by more than one .names block")
    for name in inputs:
        if name in defined:
            raise ParseError(f"primary input {name!r} redefined by .names")

    input_index: dict[str, int] = {}
    for j, name in enumerate(inputs):
        if name in input_index:
            raise ParseError(f"primary input {name!r} is declared twice")
        input_index[name] = j

    # Topological order of blocks by an iterative post-order DFS, which also
    # catches undefined nets and cycles; a chain of gates may be any length.
    order: list[int] = []
    state = [0] * len(blocks)  # 0 new, 1 visiting, 2 done
    for root in range(len(blocks)):
        if state[root] == 2:
            continue
        state[root] = 1
        stack = [[root, 0]]  # block, index of its next source
        while stack:
            top = stack[-1]
            k, si = top
            sources = blocks[k][0]
            if si == len(sources):
                state[k] = 2
                order.append(k)
                stack.pop()
                continue
            top[1] = si + 1
            src = sources[si]
            if src in input_index:
                continue
            if src not in defined:
                raise ParseError(f"undefined net {src!r}")
            j = defined[src]
            if state[j] == 1:
                raise ParseError(f"cyclic definition through net {blocks[j][1]!r}")
            if state[j] == 0:
                state[j] = 1
                stack.append([j, 0])
    for name in outputs:
        if name not in input_index and name not in defined:
            raise ParseError(f"undefined output net {name!r}")
    # The blocks form no cycle, so a block reaches an output iff an output or
    # another block reads its net.
    read = set(outputs).union(*(sources for sources, _, _ in blocks))
    for _, name, _ in blocks:
        if name not in read:
            raise ParseError(f"net {name!r} feeds no output (unused .names block)")

    # Circuit index of every net: inputs first, then the blocks in order.
    r = len(inputs)
    index = {**input_index, **{blocks[k][1]: r + i for i, k in enumerate(order)}}
    bld = Builder(r)
    for k in order:
        sources, name, rows = blocks[k]
        where = f".names block for {name!r}"
        # Each row ANDs its literals, the rows are ORed, and an off-set
        # cover (output 0) is complemented.  The gate reads the block's
        # sources in order, and x_0 in place of a missing one, which has no
        # literal and so no say in the table.
        table, polarity = 0, None
        for row in rows:
            fields = row.split()
            if not sources:
                if len(fields) != 1 or fields[0] not in ("0", "1"):
                    raise ParseError(f"bad constant cover row {row!r} in {where}")
                pattern, bit = "", fields[0]
            else:
                if len(fields) != 2 or len(fields[0]) != len(sources):
                    raise ParseError(f"bad cover row {row!r} in {where}")
                pattern, bit = fields
            cube = 0b1111
            for literals, ch in zip(_LITERALS, pattern):
                if ch not in literals:
                    raise ParseError(f"bad cover pattern {pattern!r} in {where}")
                cube &= literals[ch]
            if bit not in ("0", "1"):
                raise ParseError(f"bad cover output {bit!r} in {where}")
            if polarity is None:
                polarity = bit
            elif polarity != bit:
                raise ParseError(f"mixed cover polarity in {where}")
            table |= cube
        reads = [index[source] for source in sources] + [0, 0]
        bld.gate(table ^ 0b1111 if polarity == "0" else table, reads[0], reads[1])
    return bld.circuit([index[name] for name in outputs])


def _signal_name(s: int, r: int) -> str:
    return f"x{s}" if s < r else f"g{s - r}"


def render_blif(circuit: Circuit, model: str = "circuit") -> str:
    """Two-input .names netlist with minterm covers.

    Gates driving a function output take that output's net name directly, so
    parsing the result back yields the same gate count (no buffer blocks).
    BLIF has no error rails, so a circuit with rails is refused.
    """
    if circuit.rails is not None:
        raise ValueError("BLIF cannot hold error rails; write the circuit as "
                         "native JSON (write_native)")
    r = circuit.r
    output_name: dict[int, str] = {}
    for j, s in enumerate(circuit.outputs):
        if s >= r:
            output_name.setdefault(s, f"y{j}")
    names = [f"x{j}" for j in range(r)]
    names += [output_name.get(r + k, f"n{k}") for k in range(len(circuit.tt))]

    lines = [f".model {model}"]
    lines.append(".inputs " + " ".join(names[:r]))
    lines.append(".outputs " + " ".join(names[s] for s in circuit.outputs))
    for k, (t, a, b) in enumerate(zip(circuit.tt, circuit.src_a, circuit.src_b)):
        lines.append(f".names {names[a]} {names[b]} {names[r + k]}")
        for bit in range(4):
            if t >> bit & 1:
                lines.append(f"{bit >> 1}{bit & 1} 1")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_native(circuit: Circuit) -> str:
    r = circuit.r
    return json.dumps({
        "r": r,
        "gates": [
            # The table string lists bit 0 (inputs 0, 0) first.
            {"tt": f"{t:04b}"[::-1], "a": _signal_name(a, r), "b": _signal_name(b, r)}
            for t, a, b in zip(circuit.tt, circuit.src_a, circuit.src_b)
        ],
        "y": [_signal_name(s, r) for s in circuit.outputs],
        "z": [_signal_name(s, r) for s in circuit.rails or ()],
    }, indent=2) + "\n"


def _table(text) -> int:
    """A gate's truth table from its four-bit string, bit 0 first."""
    if type(text) is not str or len(text) != 4 or not set(text) <= {"0", "1"}:
        raise ParseError(f"bad truth table {text!r}: want four digits, each 0 or 1")
    return int(text[::-1], 2)


def _signal(text, r: int) -> int:
    """The index of "x<j>" or "g<k>", by netlist.signal_index."""
    if type(text) is not str or len(text) < 2 or text[0] not in "xg" \
            or not text[1:].isdecimal():
        raise ParseError(f"bad signal reference: {text!r}")
    k = int(text[1:])
    return signal_index(r, text[0] == "g", k)


def read_native(text: str) -> Circuit:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    try:
        r = obj["r"]
        raw_gates = obj["gates"]
        raw_y = obj["y"]
        raw_z = obj.get("z", [])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing circuit field: {exc}") from exc
    if type(r) is not int:
        raise ParseError(f"input count must be an integer, got {r!r}")
    _check_inputs(r, "circuit")
    for what, value in (("gates", raw_gates), ("function outputs", raw_y),
                        ("error rails", raw_z)):
        if not isinstance(value, list):
            raise ParseError(f"{what} must be a list, got {value!r}")
    for k, g in enumerate(raw_gates):
        if not isinstance(g, dict):
            raise ParseError(f"gate {k} must be an object, got {g!r}")
    try:
        tt = [_table(g["tt"]) for g in raw_gates]
        src_a = [_signal(g["a"], r) for g in raw_gates]
        src_b = [_signal(g["b"], r) for g in raw_gates]
        outputs = [_signal(s, r) for s in raw_y]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad circuit field: {exc}") from exc
    rails = [_signal(s, r) for s in raw_z] or None
    try:
        return Circuit.from_arrays(r, tt, src_a, src_b, outputs, rails)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def export_dot(circuit: Circuit) -> str:
    """Directed graph with gates labelled by their function name."""
    r = circuit.r
    lines = ["digraph circuit {", "  rankdir=LR;"]
    for j in range(r):
        lines.append(f'  x{j} [shape=circle];')
    for k, (t, a, b) in enumerate(zip(circuit.tt, circuit.src_a, circuit.src_b)):
        lines.append(f'  g{k} [shape=box, label="{k}:{GATE_NAMES[t]}"];')
        lines.append(f"  {_signal_name(a, r)} -> g{k} [label=a];")
        lines.append(f"  {_signal_name(b, r)} -> g{k} [label=b];")
    for j, s in enumerate(circuit.outputs):
        lines.append(f"  y{j} [shape=plaintext];")
        lines.append(f"  {_signal_name(s, r)} -> y{j};")
    for j, s in enumerate(circuit.rails or ()):
        lines.append(f"  z{j} [shape=diamond];")
        lines.append(f"  {_signal_name(s, r)} -> z{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
