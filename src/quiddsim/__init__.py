"""Compressed simulation of Grover search on QuIDD decision diagrams.

The package bundles the diagram kernel (:mod:`quiddsim.quidd`), gate and
oracle constructors, the Grover engine, classical search baselines and a
benchmark CLI (``bench``).  Importing it does not import numpy: only
dense conversion, the vectorised scan and the flat reference simulator
:mod:`quiddsim.dense` (not imported here) load it, on first use.
"""

from .quidd import (GRID, InvalidAmplitudeError, NodeCount, QuiddError,
                    QuiddManager, SizeCapError, SpaceMismatchError, VarSpace,
                    VariableOrderError, matrix_space, vector_space)
from .gates import GateSizeError, diffusion, hadamard_all
from .cnf import (CnfFormula, DimacsError, FormulaError, PlantedInstance,
                  enumerate_models, parity_3cnf, parse_dimacs,
                  parse_marked_file, planted_3cnf, random_3cnf, to_dimacs)
from .oracle import (Oracle, OracleError, Predicate, apply_oracle,
                     compile_cnf, compile_marked_set)
from .grover import (GroverParams, GroverRun, IterationStats, NoSolutionError,
                     TraceReport, amplitude_trace_report,
                     ideal_success_probability, initialize_state, measure,
                     optimal_iterations, run, sampler)
from .baselines import (CrossoverRow, MarkedSetPredicate, QueryLedger,
                        WalkConfig, WalkResult, crossover_table,
                        deterministic_scan, randomized_search, schoening_walk)
from .bench import ExperimentConfig, ScalingFit, ScalingSample

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
