"""CNF formulas: representation, DIMACS IO, generators, evaluation.

Variables are 1-based signed literals in the DIMACS style.  Variable j
corresponds to qubit j - 1, and an assignment is packed into an integer
index with variable 1 as the most significant bit, matching the index
convention of the diagram code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

class FormulaError(ValueError):
    """Structurally invalid CNF input."""


class DimacsError(FormulaError):
    """Malformed DIMACS text."""


@dataclass(frozen=True)
class CnfFormula:
    """Immutable CNF over ``num_vars`` variables.

    ``clauses`` is a tuple of literal tuples; a literal is a non-zero int
    whose sign is the polarity.  An empty clause list is the empty
    conjunction (always true); empty clauses themselves are rejected.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise FormulaError(f"need at least one variable, got {self.num_vars}")
        object.__setattr__(self, "clauses",
                           tuple(tuple(c) for c in self.clauses))
        for c in self.clauses:
            if not c:
                raise FormulaError("empty clause")
            for lit in c:
                if lit == 0:
                    raise FormulaError("literal 0 is reserved as the clause terminator")
                if abs(lit) > self.num_vars:
                    raise FormulaError(
                        f"literal {lit} exceeds declared variable count {self.num_vars}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def is_3cnf(formula: CnfFormula) -> bool:
    return all(len(c) <= 3 for c in formula.clauses)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text ('p cnf <vars> <clauses>', 0-terminated clauses).

    The SATLIB layout is read as well: a line whose first token is ``%``
    ends the input (the ``0`` that follows it is not read), and on a
    clause line a token that begins with ``c`` starts a comment that
    runs to the end of the line.  Every malformed text raises
    :class:`DimacsError`, the faults of the formula itself
    (:class:`CnfFormula`) included.
    """
    num_vars = None
    declared_clauses = None
    tokens: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "%":
            break
        if parts[0].startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: expected 'p cnf <vars> <clauses>'")
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer problem counts") from None
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before problem line")
        for tok in parts:
            if tok.startswith("c"):
                break
            try:
                tokens.append(int(tok))
            except ValueError:
                raise DimacsError(f"line {lineno}: bad literal {tok!r}") from None
    if num_vars is None:
        raise DimacsError("missing problem line")
    clauses: list[tuple[int, ...]] = []
    cur: list[int] = []
    for lit in tokens:
        if lit == 0:
            clauses.append(tuple(cur))
            cur = []
        else:
            cur.append(lit)
    if cur:
        raise DimacsError("unterminated clause at end of input")
    # CnfFormula checks the variable count, empty clauses and literal range.
    try:
        formula = CnfFormula(num_vars, tuple(clauses))
    except FormulaError as e:
        raise DimacsError(str(e)) from None
    if declared_clauses != len(clauses):
        raise DimacsError(
            f"problem line declares {declared_clauses} clauses, found {len(clauses)}")
    return formula


def to_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    for c in formula.clauses:
        lines.append(" ".join(str(lit) for lit in c) + " 0")
    return "\n".join(lines) + "\n"


def parse_marked_file(text: str) -> list[int]:
    """Parse a marked-set file: one decimal index per line, '#' comments."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            x = int(line)
        except ValueError:
            raise FormulaError(f"line {lineno}: bad index {line!r}") from None
        if x < 0:
            raise FormulaError(f"line {lineno}: negative index {x}")
        out.append(x)
    return out


def bits_from_index(index: int, num_vars: int) -> tuple[bool, ...]:
    """Unpack an index into per-variable truth values, variable 1 first."""
    return tuple(bool((index >> (num_vars - j)) & 1)
                 for j in range(1, num_vars + 1))


def index_from_bits(bits) -> int:
    x = 0
    for b in bits:
        x = (x << 1) | int(bool(b))
    return x


def evaluate_bits(formula: CnfFormula, bits) -> bool:
    """Truth value of the formula under a per-variable assignment."""
    for clause in formula.clauses:
        for lit in clause:
            if bits[abs(lit) - 1] == (lit > 0):
                break
        else:
            return False
    return True


def evaluate_index(formula: CnfFormula, index: int) -> bool:
    return evaluate_bits(formula, bits_from_index(index, formula.num_vars))


def _random_clause(num_vars: int, rng: random.Random) -> tuple[int, ...]:
    variables = rng.sample(range(1, num_vars + 1), 3)
    return tuple(v if rng.getrandbits(1) else -v for v in sorted(variables))


def random_3cnf(num_vars: int, num_clauses: int, seed: int = 0) -> CnfFormula:
    """Uniform random 3-CNF: 3 distinct variables per clause, random signs."""
    if num_vars < 3:
        raise FormulaError("random 3-CNF needs at least 3 variables")
    rng = random.Random(seed)
    return CnfFormula(num_vars,
                      tuple(_random_clause(num_vars, rng)
                            for _ in range(num_clauses)))


@dataclass(frozen=True)
class PlantedInstance:
    formula: CnfFormula
    hidden_bits: tuple[bool, ...]
    hidden_index: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "hidden_index",
                           index_from_bits(self.hidden_bits))


def planted_3cnf(num_vars: int, ratio: float = 4.2,
                 seed: int = 0) -> PlantedInstance:
    """Random 3-CNF drawn uniformly among clauses satisfied by a hidden
    assignment, so the instance is satisfiable by construction.

    The clause count is round(ratio * num_vars), which at the default
    ratio sits near the hard satisfiability band.  A negative or
    non-finite ratio raises :class:`FormulaError`.
    """
    if num_vars < 3:
        raise FormulaError("planted 3-CNF needs at least 3 variables")
    if not 0 <= ratio < math.inf:
        raise FormulaError(f"clause ratio must be finite and >= 0, "
                           f"got {ratio!r}")
    rng = random.Random(seed)
    hidden = tuple(bool(rng.getrandbits(1)) for _ in range(num_vars))
    num_clauses = round(ratio * num_vars)
    clauses = []
    while len(clauses) < num_clauses:
        c = _random_clause(num_vars, rng)
        if any(hidden[abs(lit) - 1] == (lit > 0) for lit in c):
            clauses.append(c)
    return PlantedInstance(CnfFormula(num_vars, tuple(clauses)), hidden)


def _gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def parity_3cnf(num_vars: int, seed: int = 0) -> PlantedInstance:
    """Parity-constraint 3-CNF with exactly one satisfying assignment.

    Draws random 3-variable XOR constraints until the system has full
    rank over GF(2), fixes right-hand sides from a hidden assignment,
    and expands every constraint into its four 3-literal clauses.  The
    resulting landscape gives local search no distance signal, so these
    are the stress instances for the restart walk.
    """
    if num_vars < 3:
        raise FormulaError("parity 3-CNF needs at least 3 variables")
    rng = random.Random(seed)
    hidden = tuple(bool(rng.getrandbits(1)) for _ in range(num_vars))
    while True:
        triples = [tuple(sorted(rng.sample(range(num_vars), 3)))
                   for _ in range(num_vars)]
        if _gf2_rank([sum(1 << v for v in t) for t in triples]) == num_vars:
            break
    clauses = []
    for a, b, c in triples:
        want = hidden[a] ^ hidden[b] ^ hidden[c]
        for signs in ((s0, s1, s2) for s0 in (1, -1)
                      for s1 in (1, -1) for s2 in (1, -1)):
            # The clause excludes the one assignment falsifying all three
            # literals; keep the four clauses excluding wrong parities.
            excluded = (signs[0] < 0) ^ (signs[1] < 0) ^ (signs[2] < 0)
            if excluded != want:
                clauses.append((signs[0] * (a + 1), signs[1] * (b + 1),
                                signs[2] * (c + 1)))
    return PlantedInstance(CnfFormula(num_vars, tuple(clauses)), hidden)
