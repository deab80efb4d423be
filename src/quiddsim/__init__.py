"""Compressed simulation of Grover search on QuIDD decision diagrams.

The package bundles the diagram kernel (:mod:`quiddsim.quidd`), gate and
oracle constructors, the Grover engine, classical search baselines and a
benchmark CLI (``bench``).  It is pure Python with no runtime
dependency; the dense reference it is tested against lives with the
tests.
"""

from .quidd import (GRID, InvalidAmplitudeError, NodeCount, QuiddError,
                    QuiddManager, SpaceMismatchError, VariableOrderError)
from .gates import GateSizeError, diffusion, hadamard_all
from .cnf import (CnfFormula, DimacsError, FormulaError, PlantedInstance,
                  parity_3cnf, parse_dimacs, parse_marked_file, planted_3cnf,
                  random_3cnf, to_dimacs)
from .oracle import (Oracle, OracleError, Predicate, apply_oracle,
                     compile_cnf, compile_marked_set)
from .grover import (GroverParams, GroverRun, IterationStats, NoSolutionError,
                     Trace, ideal_success_probability, initialize_state,
                     measure, optimal_iterations, run, sampler)
from .baselines import (CrossoverRow, QueryLedger, WalkConfig, WalkResult,
                        crossover_table, deterministic_scan,
                        randomized_search, schoening_walk)
from .bench import ExperimentConfig, ScalingFit, ScalingSample

__version__ = "0.1.0"
__all__ = [name for name in dir() if not name.startswith("_")]
