"""Evolutionary synthesis of totally self-checking combinational circuits."""

from .netlist import (
    Circuit,
    Fault,
    FaultSite,
    Gate,
    SignalRef,
    build_duplication_baseline,
    duplication_overhead,
)
from .sim import FaultScope, ResponseMatrix, simulate
from .fitness import FitnessVector, evaluate_checking, evaluate_circuit, f_function
from .genome import (
    GenomeLayout,
    Genotype,
    LockMask,
    crossover_single_point,
    decode,
    default_address_width,
    encode_seed,
    mutate_bit,
    mutate_routing,
    mutate_translocate,
)
from .verify import verify_fs, verify_tsc
from .formats import (
    ParseError,
    TargetSpec,
    export_dot,
    parse_blif,
    parse_pla,
    read_native,
    render_blif,
    render_pla,
    write_native,
)
from .evolve import IslandConfig, RunResult, run, run_distributed

__all__ = [name for name in dir() if not name.startswith("_")]
