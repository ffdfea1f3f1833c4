"""Compiled coverage-problem IR (cone-of-influence slice + automata).

See :mod:`repro.problem.ir` for the full story: :func:`compile_problem`
builds an immutable :class:`CompiledProblem` — sliced module, compiled
property automata, free/observed signal partition, structural fingerprint —
once per (design × formulas × observed signals), and every coverage engine
(:mod:`repro.engines`) consumes the IR instead of recompiling from a raw
``Module`` + ``Formula`` list per query.
"""

from .ir import (
    CompiledProblem,
    clear_compile_caches,
    compile_problem,
    compiled_automata,
)

__all__ = [
    "CompiledProblem",
    "compile_problem",
    "compiled_automata",
    "clear_compile_caches",
]
