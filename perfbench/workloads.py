"""The benchmark's workloads: their inputs, their jobs and the known
answers each job's output is checked against.

A job is one ``ringlower`` command line, run in-process through
``ringlower.cli.main``.  A workload's ``prepare`` makes everything its jobs
need (inputs drawn from the seed, gadget config files written with
``find-gadgets``); ``check`` compares one job's exit code and output with
references that do not come from the code under test (see
``reference.py``).  Checks return ``None`` or a one-line reason.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import re
import signal
import traceback
from dataclasses import dataclass
from time import perf_counter

from ringlower import cli

import reference as ref

# The formula corpus of the repository's tests (tests/_corpus.py) when the
# benchmark was defined, copied so that edits to the test corpus do not
# move the benchmark.
CORPUS = [
    "params t . t = 0",
    "params t . t - 1 = 0",
    "params t . t != 0",
    "params t . t = 0 | t - 1 = 0",
    "params t . t = 0 & t - 1 = 0",
    "params t . t^2 - 1 = 0",
    "params t . t != 0 | t - 1 = 0",
    "params t . t != 0 & t != 1",
    "params t . !(t = 0 | t^2 - 1 = 0)",
    "params t . t = 0 | t - 1 = 0 | t - 2 = 0",
    "params t . (t = 0 | t - 1 = 0) & t^2 = 0",
    "params t . 2*t - 1 = 0",
    "params t . t^2 - t = 0",
    "params t . 0 = 0",
    "params t . 1 = 0",
    "params t . exists x . t*x - 1 = 0",
    "params t . exists x . x^2 - t = 0",
    "params t . exists x . t - 2*x = 0",
    "params t . exists x . t*x - 1 = 0 | t = 0",
    "params t . exists x . x^2 - t = 0 & t != 0",
    "params t . exists x y . t - x^2 - y^2 = 0",
    "params t . exists x . t*x^2 - x = 0",
    "params t . exists x . t - x = 0 & x^2 - x != 0",
    "params u v . u = 0 | v = 0",
    "params u v . u = 0 & v = 0",
    "params u v . u*v = 0",
    "params u v . u != 0 | v = 0",
    "params u v . u - v = 0",
    "params u v . exists x . u*x - v = 0",
    "params u v . u*v - 1 = 0",
    "params u v . u != v",
    "params u v . (u = 0 & v = 0) | u - 1 = 0",
    "params u v . exists x . u - x^2 = 0 & v - x = 0",
    "params t . exists x . (t - x = 0 | t + x = 0) & x - 1 = 0",
]

# The README's zbox example, at windows small enough for a job.
ZBOX_FORMULA = "params t . t != 0 | t - 1 = 0"
ZBOX_RINGS = ("zbox:3", "zbox:4")
# ringlower's zbox backend folds with the norm form x^2 + y^2, whose only
# integer zero is (0, 0).
ZBOX_ORIGIN = ref.parse_polynomial("x^2 + y^2")

CHECK_POINTS = 4  # seeded parameter points per membership spot check
IDENTITY_POINTS = 3  # seeded integer points per fold identity check
JOB_LIMIT_S = 30.0  # per-job limit; a job that reaches it fails at the limit


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    under test can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Outcome:
    rc: int | None
    out: str
    err: str
    seconds: float
    failure: str | None = None  # "timeout" or "error", before any output check


def call(argv: list[str]) -> Outcome:
    """Run one ringlower command line in this process with stdout and
    stderr captured, under an alarm.  Single-threaded, no child process."""
    limit = JOB_LIMIT_S
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    failure = None
    rc = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
    except JobTimeout:
        failure = "timeout"
    except Exception:
        failure = "error"
        err.write(traceback.format_exc())
    finally:
        seconds = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if failure == "timeout":
        seconds = limit
    return Outcome(rc, out.getvalue(), err.getvalue(), seconds, failure)


@dataclass
class Job:
    argv: list[str]
    text: str = ""  # input formula, for compile jobs
    ring: str = ""


def _modulus(ring: str) -> int:
    return int(ring.split(":")[1])


def _points(rng: random.Random, n: int, arity: int, count: int) -> list[tuple]:
    every = list(itertools.product(range(n), repeat=arity))
    return every if len(every) <= count else rng.sample(every, count)


def _same_set_at_points(left, right, n: int, rng: random.Random) -> str | None:
    for point in _points(rng, n, len(left[0]), CHECK_POINTS):
        if ref.member(left, point, n) != ref.member(right, point, n):
            return f"input and output disagree at {point} over zmod:{n}"
    return None


def _single_equation(out: str):
    """The printed single equation, or a reason it is not one."""
    formula = ref.parse_formula(out.strip())
    body = formula[2]
    if body[0] != "atom" or not body[2]:
        return None, "output is not a single equation"
    return formula, None


def _fold_identity(single, conj, origin: dict, rng: random.Random) -> str | None:
    """The printed single equation must equal the origin-gadget fold of
    the conjunctive stage's equations at seeded integer points.  This
    needs no polynomial substitution, so it checks ``fold_to_single``
    independently of ``Polynomial.substitute``."""
    if conj[0] != single[0] or conj[1] != single[1]:
        return "single equation and conjunctive stage declare different variables"
    if not ref.is_conjunction_of_equations(conj[2]):
        return "conjunctive stage is not a conjunction of equations"
    equations = [atom[1] for atom in ref.atoms(conj[2])]
    names = conj[0] + conj[1]
    for _ in range(IDENTITY_POINTS):
        env = {v: rng.randint(-6, 6) for v in names}
        folded = ref.fold(origin, [ref.evaluate(p, env) for p in equations])
        if ref.evaluate(single[2][1], env) != folded:
            return f"single equation differs from the fold of the conjunctive stage at {env}"
    return None


def _config_sections(text: str) -> dict:
    """{section: {"entries": {kind: text}, "status": {kind: line}}}"""
    sections: dict = {}
    current = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {"entries": {}, "status": {}})
        elif current is None or not line:
            continue
        elif line.startswith("#"):
            kind, _, rest = line[1:].strip().partition(":")
            # A refuted gadget also gets an "unavailable" note; keep the
            # status line, which comes first.
            current["status"].setdefault(kind, rest.strip())
        else:
            kind, _, value = line.partition("=")
            current["entries"][kind.strip()] = value.strip()
    return sections


def output_terms(text: str) -> int:
    """Terms in the formulas a job emitted: the printed formula of a
    compile job, or every gadget of a find-gadgets config."""
    if text.lstrip().startswith("["):
        total = 0
        for section in _config_sections(text).values():
            for kind, value in section["entries"].items():
                if kind == "origin":
                    total += len(ref.parse_polynomial(value))
                else:
                    total += ref.term_count(ref.parse_formula(value)[2])
        return total
    return ref.term_count(ref.parse_formula(text.strip())[2])


class Workload:
    name = ""
    why = ""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.configs: dict[str, str] = {}
        self._origins: dict[str, tuple] = {}

    def prepare(self, seed: int) -> list[Job]:
        raise NotImplementedError

    def check(self, job: Job, outcome: Outcome, rng: random.Random) -> str | None:
        raise NotImplementedError

    def write_configs(self, rings) -> None:
        """Each ring's gadget config, written as a user would with
        ``find-gadgets --out``."""
        for ring in rings:
            path = os.path.join(self.out_dir, ring.replace(":", "") + ".ini")
            outcome = call(["find-gadgets", "--ring", ring, "--out", path])
            if outcome.rc != 0:
                raise RuntimeError(f"find-gadgets --ring {ring} failed: {outcome.err.strip()}")
            self.configs[ring] = path

    def origin(self, ring: str):
        """(the config's origin gadget, or None; reason it is wrong, or None)"""
        if ring not in self._origins:
            with open(self.configs[ring], encoding="utf-8") as handle:
                entries = _config_sections(handle.read())[ring]["entries"]
            poly = ref.parse_polynomial(entries["origin"]) if "origin" in entries else None
            wrong = None
            if poly is None:
                wrong = f"{ring} config has no origin gadget"
            elif not ref.origin_zeros_only_at_origin(poly, (_modulus(ring),)):
                wrong = f"{ring} config origin gadget has a zero off the origin"
            self._origins[ring] = (poly, wrong)
        return self._origins[ring]

    def conjunctive_stage(self, job: Job, extra: list[str]):
        """The job's formula lowered to --target conj, outside the timed
        phase; the first two passes are the same as in the timed job."""
        argv = ["compile", "--formula", job.text, "--ring", job.ring,
                "--target", "conj", "--verify", "off", "--allow-unverified", *extra]
        outcome = call(argv)
        if outcome.failure or outcome.rc != 0:
            return None, f"--target conj exited {outcome.rc}: {outcome.err.strip()[-200:]}"
        return ref.parse_formula(outcome.out.strip()), None


def _folds(text: str) -> bool:
    """Does lowering this formula leave more than one equation to fold?
    Exactly when its body has a connective or an inequation."""
    body = text.split(".")[-1]
    return any(c in body for c in "|&!")


class Certify(Workload):
    name = "certify"
    why = ("verified compiles to both targets: fixed per-call cost on many short conj jobs, "
           "the oracle's search over folded equations on the single-equation jobs")
    RINGS = ("zmod:2", "zmod:3", "zmod:4", "zmod:5", "zmod:7", "zmod:8", "zmod:9")
    DISCONNECTED = "zmod:6"
    FOLD_RINGS = ("zmod:3", "zmod:5", "zmod:7")

    def prepare(self, seed: int) -> list[Job]:
        self.write_configs(self.RINGS + (self.DISCONNECTED,))
        jobs = []
        for ring in self.RINGS + (self.DISCONNECTED,):
            extra = ["--allow-unverified"] if ring == self.DISCONNECTED else []
            for text in CORPUS:
                argv = ["compile", "--formula", text, "--ring", ring, "--target", "conj",
                        "--gadgets", self.configs[ring], *extra]
                jobs.append(Job(argv, text, ring))
        jobs += [
            Job(["compile", "--formula", text, "--ring", ring, "--target", "single",
                 "--verify", "exhaustive", "--gadgets", self.configs[ring]], text, ring)
            for ring in self.FOLD_RINGS
            for text in CORPUS
            if _folds(text)
        ]
        jobs += [
            Job(["compile", "--formula", ZBOX_FORMULA, "--ring", ring, "--target", "single",
                 "--verify", "heuristic"], ZBOX_FORMULA, ring)
            for ring in ZBOX_RINGS
        ]
        random.Random(f"{self.name}/{seed}").shuffle(jobs)
        return jobs

    def check(self, job, outcome, rng):
        if "single" in job.argv:
            return self.check_single(job, outcome, rng)
        return self.check_conj(job, outcome, rng)

    def check_conj(self, job, outcome, rng):
        n = _modulus(job.ring)
        given = ref.parse_formula(job.text)
        if job.ring != self.DISCONNECTED:
            # Connected rings: every gadget of the README table verifies.
            if outcome.rc != 0:
                return f"exit {outcome.rc}, expected 0"
            out = ref.parse_formula(outcome.out.strip())
            if not ref.is_conjunction_of_equations(out[2]):
                return "output is not conjunctive"
            return _same_set_at_points(given, out, n, rng)
        # zmod:6 = zmod:2 x zmod:3 is disconnected, so only product sets are
        # conjunctively definable: any other set must give exit 4.
        product = ref.is_crt_product_set(ref.defined_set(given, n), (2, 3))
        out = ref.parse_formula(outcome.out.strip())
        if outcome.rc == 4:
            match = re.search(r"verification failed at (\w+): witness \[([-\d, ]*)\]", outcome.err)
            if not match or match.group(1) != "eliminate_disjunctions":
                return f"exit 4 without an axes-stage witness: {outcome.err.strip()}"
            witness = tuple(int(v) for v in match.group(2).split(",") if v.strip())
            if ref.member(given, witness, n) == ref.member(out, witness, n):
                return f"witness {witness} is not in exactly one of the two sets"
            return None
        if outcome.rc == 0 and not product:
            return "exit 0, but the input's set is not a product set"
        if outcome.rc != 0:
            return f"exit {outcome.rc}, expected 0 or 4"
        return _same_set_at_points(given, out, n, rng)

    def check_single(self, job, outcome, rng):
        if outcome.rc != 0:
            return f"exit {outcome.rc}, expected 0"
        single, wrong = _single_equation(outcome.out)
        if wrong:
            return wrong
        if job.ring.startswith("zbox"):
            conj, wrong = self.conjunctive_stage(job, [])
            return wrong or _fold_identity(single, conj, ZBOX_ORIGIN, rng)
        origin, wrong = self.origin(job.ring)
        if wrong:
            return wrong
        conj, wrong = self.conjunctive_stage(job, ["--gadgets", self.configs[job.ring]])
        if wrong:
            return wrong
        n = _modulus(job.ring)
        return _same_set_at_points(ref.parse_formula(job.text), conj, n, rng) or _fold_identity(
            single, conj, origin, rng
        )


# Shapes for lower-only, inside the syntactic bounds that keep a fold
# affordable today: three atoms of degree at most 2, at most one
# disjunction (of equations only) and at most two inequations.  An
# inequation inside a disjunction, or two disjunctions, fold to tens of
# thousands of terms and take seconds to minutes.  Every shape leaves
# three or four equations to fold, so the fold dominates each job.
SKELETONS = (
    "({a} = 0 | {b} = 0) & {c} = 0",
    "{a} = 0 | {b} = 0 | {c} = 0",
    "{a} != 0 & {b} != 0",
    "{a} != 0 & {b} = 0 & {c} = 0",
)
SHAPE_SEED = "lower-only/shapes"
REPLICAS = 4  # 128 jobs, so that more than ten jobs lie beyond job_p90_ms


def _poly_text(terms: list[tuple[int, tuple[str, ...]]]) -> str:
    text = ""
    for c, mono in terms:
        piece = "*".join(([str(abs(c))] if abs(c) != 1 or not mono else []) + list(mono))
        if not text:
            text = f"-{piece}" if c < 0 else piece
        else:
            text += f" {'-' if c < 0 else '+'} {piece}"
    return text


class LowerOnly(Workload):
    name = "lower-only"
    why = "unverified single-equation compiles of generated formulas: passes and polynomial expansion only"
    RINGS = ("zmod:3", "zmod:5", "zmod:7")

    @staticmethod
    def shapes() -> list[tuple[str, tuple[str, ...], tuple[str, ...], list]]:
        """Formula shapes, the same for every seed: a skeleton, the
        parameters, the bound variables and each atom's monomials.  Every
        skeleton appears with one and two parameters, with and without a
        bound variable, and with two- and three-term atoms, so the work in
        a run does not depend on the seed."""
        rng = random.Random(SHAPE_SEED)
        out = []
        for _ in range(REPLICAS):
            for skeleton in SKELETONS:
                for params, bound, terms in itertools.product(
                    (("t",), ("u", "v")), ((), ("x",)), (2, 3)
                ):
                    names = params + bound
                    monomials = [(v,) for v in names] + [
                        (v, w) for i, v in enumerate(names) for w in names[i:]
                    ]
                    atoms = [rng.sample(monomials, terms - 1) + [()] for _ in range(3)]
                    out.append((skeleton, params, bound, atoms))
        return out

    def prepare(self, seed: int) -> list[Job]:
        self.write_configs(self.RINGS)
        rng = random.Random(f"{self.name}/{seed}")
        jobs = []
        for i, (skeleton, params, bound, atoms) in enumerate(self.shapes()):
            # Each shape runs on a fixed ring (every skeleton and variant
            # at least once per ring), and no coefficient is 0 in that ring,
            # so the seed changes the coefficients but not which terms exist.
            ring = self.RINGS[i % len(self.RINGS)]
            coefficients = [c for c in range(-9, 10) if c % _modulus(ring)]
            polys = [
                _poly_text([(rng.choice(coefficients), mono) for mono in monomials])
                for monomials in atoms
            ]
            head = "params " + " ".join(params) + " . "
            if bound:
                head += "exists " + " ".join(bound) + " . "
            text = head + skeleton.format(**dict(zip("abc", polys)))
            argv = ["compile", "--formula", text, "--ring", ring, "--target", "single",
                    "--verify", "off", "--allow-unverified", "--gadgets", self.configs[ring]]
            jobs.append(Job(argv, text, ring))
        rng.shuffle(jobs)
        return jobs

    def check(self, job, outcome, rng):
        if outcome.rc != 0:
            return f"exit {outcome.rc}, expected 0"
        single, wrong = _single_equation(outcome.out)
        if wrong:
            return wrong
        origin, wrong = self.origin(job.ring)
        if wrong:
            return wrong
        conj, wrong = self.conjunctive_stage(job, ["--gadgets", self.configs[job.ring]])
        return wrong or _fold_identity(single, conj, origin, rng)


# Known gadget facts for find-gadgets, by hand from the README table and
# the nilpotent-element lemma (ROADMAP item 3): no origin gadget at degree
# 1 for any ring, none at any degree for a ring with a nonzero nilpotent,
# and one at degree 2 for every reduced ring listed here; the axes gadget
# is REFUTED exactly for disconnected rings; the nonzero gadget exists
# exactly for rings isomorphic to one zmod.
# (ring, --max-degree, factor moduli, connected, has a nilpotent, nonzero)
GADGET_TABLE = [
    ("zmod:2", 2, (2,), True, False, True),
    ("zmod:3", 2, (3,), True, False, True),
    ("zmod:5", 2, (5,), True, False, True),
    ("zmod:7", 2, (7,), True, False, True),
    ("zmod:11", 2, (11,), True, False, True),
    ("zmod:4", 2, (4,), True, True, True),
    ("zmod:8", 2, (8,), True, True, True),
    ("zmod:9", 2, (9,), True, True, True),
    ("zmod:6", 2, (6,), False, False, True),
    ("zmod:10", 2, (10,), False, False, True),
    ("zmod:12", 2, (12,), False, True, True),
    ("product:(zmod:2,zmod:2)", 2, (2, 2), False, False, False),
    ("product:(zmod:2,zmod:3)", 2, (2, 3), False, False, True),
    ("product:(zmod:3,zmod:3)", 2, (3, 3), False, False, False),
    ("product:(zmod:2,zmod:4)", 2, (2, 4), False, True, False),
    ("product:(zmod:2,zmod:5)", 2, (2, 5), False, False, True),
    ("zmod:13", 1, (13,), True, False, True),
    ("zmod:17", 1, (17,), True, False, True),
    ("zmod:19", 1, (19,), True, False, True),
    ("zmod:23", 1, (23,), True, False, True),
    ("zmod:29", 1, (29,), True, False, True),
    ("zmod:31", 1, (31,), True, False, True),
    ("zmod:37", 1, (37,), True, False, True),
    ("zmod:41", 1, (41,), True, False, True),
    ("zmod:43", 1, (43,), True, False, True),
    ("zmod:47", 1, (47,), True, False, True),
    ("zmod:53", 1, (53,), True, False, True),
    ("zmod:16", 1, (16,), True, True, True),
    ("zmod:25", 1, (25,), True, True, True),
    ("zmod:27", 1, (27,), True, True, True),
    ("zmod:32", 1, (32,), True, True, True),
    ("zmod:49", 1, (49,), True, True, True),
    ("zmod:14", 1, (14,), False, False, True),
    ("zmod:15", 1, (15,), False, False, True),
    ("zmod:21", 1, (21,), False, False, True),
    ("zmod:30", 1, (30,), False, False, True),
    ("zmod:18", 1, (18,), False, True, True),
    ("zmod:20", 1, (20,), False, True, True),
    ("product:(zmod:3,zmod:4)", 1, (3, 4), False, False, True),
    ("product:(zmod:5,zmod:5)", 1, (5, 5), False, False, False),
    ("product:(zmod:2,zmod:9)", 1, (2, 9), False, True, True),
]


class FindGadgets(Workload):
    name = "find-gadgets"
    why = "gadget construction and the exhaustive origin search, over every row of the README ring table"

    def __init__(self, out_dir: str, table=None) -> None:
        super().__init__(out_dir)
        self.table = {row[0]: row for row in (GADGET_TABLE if table is None else table)}

    def prepare(self, seed: int) -> list[Job]:
        jobs = [
            Job(["find-gadgets", "--ring", ring, "--max-degree", str(degree)], ring=ring)
            for ring, degree, *_ in self.table.values()
        ]
        random.Random(f"{self.name}/{seed}").shuffle(jobs)
        return jobs

    def check(self, job, outcome, rng):
        if outcome.rc != 0:
            return f"exit {outcome.rc}, expected 0"
        ring, degree, moduli, connected, nilpotent, nonzero = self.table[job.ring]
        section = _config_sections(outcome.out).get(ring)
        if section is None:
            return f"no [{ring}] section"
        entries, status = section["entries"], section["status"]
        if ("origin" in entries) != (degree >= 2 and not nilpotent):
            return f"origin gadget {'found' if 'origin' in entries else 'missing'}, table says otherwise"
        if "origin" in entries and not ref.origin_zeros_only_at_origin(
            ref.parse_polynomial(entries["origin"]), moduli
        ):
            return "origin gadget has a zero off the origin"
        axes = status.get("axes", "")
        if axes.startswith("REFUTED") == connected or "axes" not in entries:
            return f"axes status {axes!r} for a {'connected' if connected else 'disconnected'} ring"
        if ("nonzero" in entries) != nonzero:
            return f"nonzero gadget {'present' if 'nonzero' in entries else 'missing'}, table says otherwise"
        if nonzero and len(moduli) == 1:
            formula = ref.parse_formula(entries["nonzero"])
            n = moduli[0]
            if any(ref.member(formula, (t,), n) != (t != 0) for t in range(n)):
                return "nonzero gadget does not define R - {0}"
        return None


WORKLOADS = {w.name: w for w in (Certify, LowerOnly, FindGadgets)}
