"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, then exposes one
*cycle*: a fixed list of operations that the runner times one by one and
repeats until the run's time is up. Every operation is deterministic given
its inputs, so each repeat of a cycle must give the same results, and every
result passes a correctness gate before it counts. The package is called
only through module attributes (``harness.estimate_risk``, ...) so that the
traced run sees every call.

Why these four (see README.md for the full table):

* ``mc-small-k``: the per-trial Monte-Carlo loops on small alphabets, the
  loop that dominates the test suite;
* ``probe-large-k``: the sparse huge-alphabet path (anchor sampler,
  ``tv_to_type``) at K = 1e5 and 1e6;
* ``exact-grid``: the exact oracle over K**n outcomes, with no sampling;
* ``cli-records``: in-process CLI commands appending to one results file,
  the only workload that reaches ``cli`` and ``append_result``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import traceback
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np

from bdlimits import adversary, bounds, cli, detectors, harness
from bdlimits.distributions import Categorical, DistributionPair

#: Gates allow this many standard errors of Monte-Carlo noise (two-sided
#: normal tail 2e-9 per check), plus one trial's worth of discreteness.
NOISE_Z = 6.0


class SetupError(RuntimeError):
    """The workload's inputs could not be built or failed their own checks."""


def _noise(p: float, trials: int) -> float:
    return NOISE_Z * math.sqrt(max(p * (1.0 - p), 0.0) / trials) + 1.0 / trials


class Workload:
    """A seeded set of inputs and one cycle of timed operations."""

    name = ""
    #: what ``work_per_cycle`` counts
    work_unit = ""

    def warm_up(self) -> None:
        """Let lazy set-up finish before timing, with the least work."""

    def ops(self) -> list:
        raise NotImplementedError

    def run(self, op):
        """The timed operation; returns a comparable result."""
        raise NotImplementedError

    def check(self, op, result) -> bool:
        """Correctness gate for one result, outside the timed region."""
        raise NotImplementedError

    def begin_cycle(self) -> None:
        pass

    def end_cycle(self) -> bool:
        return True

    def work_per_cycle(self) -> float:
        raise NotImplementedError

    def working_set_bytes(self) -> int:
        raise NotImplementedError

    def trace_hooks(self) -> dict:
        """Extra per-function hooks for the traced run."""
        return {}

    def layer_metrics(self) -> dict:
        """Extra per-layer values gathered by this workload's hooks."""
        return {}


# --------------------------------------------------------------------- mc-small-k


def _readme_instance() -> harness.BenchmarkInstance:
    pair = DistributionPair(
        Categorical.uniform(2), Categorical.point_mass(0, 2), gamma=0.5, beta=0.5
    )
    return harness.BenchmarkInstance("readme", pair, n=2, m=2)


def sbd_bayes_probe_risk(pair: DistributionPair) -> float:
    """Exact SBD risk of the Bayes probe detector under the default SBD prior.

    The probe is clean (i = 0) with probability 3/4 and drawn from pb with
    probability 1/4; the detector flags x when pb(x) >= p0(x).
    """
    p0, pb = pair.p0.probs, pair.pb.probs
    flagged = pb >= p0
    prior = harness.JointPrior.sbd_default()
    clean_probe = prior.p00 + prior.p10
    return clean_probe * float(p0[flagged].sum()) + (1.0 - clean_probe) * float(
        pb[~flagged].sum()
    )


class McSmallK(Workload):
    """The five per-trial loops over the three benchmark instances."""

    name = "mc-small-k"
    work_unit = "trial"
    TRIALS = 400
    WARM_UP_TRIALS = 100
    TYPE1_M = 48
    KINDS = ("np", "type2", "type1", "conditional", "sbd", "type0")

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        instances = harness.benchmark_instances()
        self.exact = {
            inst.label: bounds.exact_type3_risk(inst.pair, inst.n)
            for inst in instances + (_readme_instance(),)
        }
        self.sbd_exact = {inst.label: sbd_bayes_probe_risk(inst.pair) for inst in instances}
        self._ops = [
            (kind, inst, rng.getrandbits(32)) for inst in instances for kind in self.KINDS
        ]
        self._ops.append(("np", _readme_instance(), rng.getrandbits(32)))

    def warm_up(self) -> None:
        first = self._ops[0][1]
        for kind in self.KINDS:
            self._estimate(kind, first, 0, self.WARM_UP_TRIALS)

    def ops(self) -> list:
        return self._ops

    def run(self, op):
        kind, inst, seed = op
        return self._estimate(kind, inst, seed, self.TRIALS)

    def _estimate(self, kind: str, inst, seed: int, t: int):
        pair, n, m = inst.pair, inst.n, inst.m
        if kind == "np":
            return harness.estimate_risk(harness.np_trial_detector(), pair, n, t, seed)
        if kind == "type2":
            return harness.estimate_risk(harness.type2_trial_detector(), pair, n, t, seed)
        if kind == "type1":
            detector = harness.type1_trial_detector(self.TYPE1_M)
            return harness.estimate_risk(detector, pair, n, t, seed)
        if kind == "conditional":
            return harness.estimate_conditional_errors(
                harness.np_trial_detector(), pair, n, t, seed
            )
        if kind == "sbd":
            return harness.estimate_generalized_risk(
                harness.bayes_probe_detector(pair), pair, n, m,
                harness.JointPrior.sbd_default(), harness.Flavor.SBD,
                harness.TrainerStub(), t, seed,
            )
        detector0 = harness.type0_tv_detector(pair.gamma, pair.beta)
        return harness.type0_demo_risk(detector0, pair, n, m, harness.TrainerStub(), t, seed)

    def check(self, op, result) -> bool:
        kind, inst, _ = op
        exact = self.exact[inst.label]
        t = self.TRIALS
        if kind == "np":
            return abs(result.p_hat - exact) <= _noise(exact, t)
        if kind == "conditional":
            # the two branch variances sum to at most 2 * risk
            mean = 0.5 * (result[0].p_hat + result[1].p_hat)
            return abs(mean - exact) <= NOISE_Z * math.sqrt(exact / (2 * t)) + 1.0 / t
        if kind == "sbd":
            target = self.sbd_exact[inst.label]
            return abs(result.p_hat - target) <= _noise(target, t)
        # no detector beats the likelihood-ratio test beyond noise
        return result.p_hat >= exact - _noise(exact, t)

    def work_per_cycle(self) -> float:
        return sum(
            2 * self.TRIALS if kind == "conditional" else self.TRIALS
            for kind, _, _ in self._ops
        )

    def working_set_bytes(self) -> int:
        # symbols and probability vectors of one trial: n + m + K entries
        return max(8 * (inst.n + self.TYPE1_M + inst.pair.alphabet_size) for _, inst, _ in self._ops)


# ------------------------------------------------------------------ probe-large-k


class ProbeLargeK(Workload):
    """The marginally-uniform sampler against the type-distance detector."""

    name = "probe-large-k"
    work_unit = "trial"
    TRIALS = 500
    WARM_UP_TRIALS = 100
    ALPHABETS = (10**5, 10**6)
    N, GAMMA, BETA = 20, 1.0, 0.01

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.configs = {
            k: adversary.ImpossibilityConfig(k=k, beta=self.BETA, gamma=self.GAMMA, n=self.N)
            for k in self.ALPHABETS
        }
        self.floor = {k: adversary.imposs_risk_floor(self.N, c.m) for k, c in self.configs.items()}
        self._ops = [(k, rng.getrandbits(32)) for _ in range(2) for k in self.ALPHABETS]

    def _detector(self, d, p0) -> int:
        return int(detectors.type2_tv(d, p0, self.GAMMA, self.BETA))

    def warm_up(self) -> None:
        for config in self.configs.values():
            adversary.imposs_probe(self._detector, config, self.WARM_UP_TRIALS, 0)

    def ops(self) -> list:
        return self._ops

    def run(self, op):
        k, seed = op
        return adversary.imposs_probe(self._detector, self.configs[k], self.TRIALS, seed)

    def check(self, op, result) -> bool:
        # With n << K every type is at TV >= 1 - n/K from uniform, beyond the
        # threshold, so the detector always flags and its exact risk is 1/2.
        noise = _noise(0.5, self.TRIALS)
        return result.p_hat + noise >= self.floor[op[0]] and abs(result.p_hat - 0.5) <= noise

    def work_per_cycle(self) -> float:
        return self.TRIALS * len(self._ops)

    def working_set_bytes(self) -> int:
        # the dense clean probability vector
        return 8 * max(self.ALPHABETS)


# --------------------------------------------------------------------- exact-grid


def _compositions(n: int, k: int):
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def type_sum_risk(pair: DistributionPair, n: int) -> float:
    """Exact optimal risk by summing over types with multinomial weights.

    Independent of the package's K**n enumeration: TV(P0^n, P1^n) is
    (1/2) sum over count vectors c of multinomial(n; c) * |p0^c - p1^c|.
    """
    p0 = [float(x) for x in pair.p0.probs]
    mixed = pair.gamma * pair.pb.probs + (1.0 - pair.gamma) * pair.p0.probs
    p1 = [float(x) for x in mixed / mixed.sum()]
    terms = []
    for counts in _compositions(n, len(p0)):
        coef = math.factorial(n)
        for c in counts:
            coef //= math.factorial(c)
        a = math.prod(p**c for p, c in zip(p0, counts))
        b = math.prod(p**c for p, c in zip(p1, counts))
        terms.append(coef * abs(a - b))
    return 0.5 - 0.25 * math.fsum(terms)


class ExactGrid(Workload):
    """The exact optimal-risk oracle on the K**n <= 1e7 grid."""

    name = "exact-grid"
    work_unit = "grid pass"
    GRID = {"k2": range(10, 24), "k3": range(8, 15), "k4": range(6, 12)}
    TOLERANCE = 1e-12

    def __init__(self, seed: int, workdir: Path) -> None:
        instances = {inst.label: inst for inst in harness.benchmark_instances()}
        # the grid is fixed and ignores the seed: a seeded order of the pass
        # moved peak RSS by 8 percent between seeds (allocator reuse)
        self._ops = [(instances[label], n) for label, ns in self.GRID.items() for n in ns]
        self.reference = {(inst.label, n): type_sum_risk(inst.pair, n) for inst, n in self._ops}

    def warm_up(self) -> None:
        for label, ns in self.GRID.items():
            inst = next(inst for inst, _ in self._ops if inst.label == label)
            bounds.exact_type3_risk(inst.pair, ns[0])

    def ops(self) -> list:
        return self._ops

    def run(self, op):
        inst, n = op
        return bounds.exact_type3_risk(inst.pair, n)

    def check(self, op, result) -> bool:
        inst, n = op
        return abs(result - self.reference[(inst.label, n)]) <= self.TOLERANCE

    def work_per_cycle(self) -> float:
        return 1.0

    def working_set_bytes(self) -> int:
        # one float64 outcome array of the largest enumeration
        return 8 * max(inst.pair.alphabet_size**n for inst, n in self._ops)


# -------------------------------------------------------------------- cli-records


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=argv, prog_name="bdlimits", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a usage error or a crash: record it as a failed command
            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def _validator(name: str) -> jsonschema.Draft202012Validator:
    text = resources.files("bdlimits").joinpath(f"schemas/{name}.schema.json").read_text()
    return jsonschema.Draft202012Validator(json.loads(text))


class CliRecords(Workload):
    """CLI commands appending to one results file seeded with prior records."""

    name = "cli-records"
    work_unit = "command"
    PRIOR = 3000
    PRESEEDED = 3
    REPEATS = 4
    FIXED_TIMESTAMP = "2000-01-01T00:00:00+0000"
    SCHEMAS = {"risk": "risk_record", "toy": "toy_record", "probe": "probe_record"}

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.path = str(workdir / "results.jsonl")
        self.validators = {cmd: _validator(name) for cmd, name in self.SCHEMAS.items()}
        self.validators["bounds-table"] = _validator("bounds_report")
        configs = self._configs(rng)

        # one reference run per config gives its stdout and its record line;
        # it also serves as the warm-up
        reference_file = workdir / "reference.jsonl"
        reference_file.unlink(missing_ok=True)
        self.reference: dict[tuple, str] = {}
        record_lines: dict[tuple, str] = {}
        for argv in configs:
            size = reference_file.stat().st_size if reference_file.exists() else 0
            code, out, err = invoke(list(argv) + ["--out", str(reference_file)])
            if code != 0 or not self._valid(argv, out):
                raise SetupError(f"reference run failed: {' '.join(argv)}: {err.strip()}")
            self.reference[argv] = out
            with open(reference_file, "rb") as fh:
                fh.seek(size)
                record_lines[argv] = self._restamp(fh.read().decode("utf-8"))
        reference_file.unlink()

        # prior records: real record shapes under fresh hashes, plus a few
        # earlier runs of this cycle's own configs at spread-out depths
        templates = [json.loads(record_lines[argv]) for argv in configs]
        prior = []
        for _ in range(self.PRIOR):
            record = dict(rng.choice(templates))
            record["config_hash"] = f"{rng.getrandbits(64):016x}"
            prior.append(json.dumps(record, sort_keys=True) + "\n")
        preseeded = rng.sample(configs, self.PRESEEDED)
        for i, argv in enumerate(preseeded):
            depth = (2 * i + 1) / (2 * self.PRESEEDED)
            prior.insert(int(depth * len(prior)), record_lines[argv])
        self.snapshot = "".join(prior).encode("utf-8")
        self.snapshot_lines = len(prior)
        self.snapshot_offsets: dict[str, int] = {}
        offset = 0
        for line in prior:
            offset += len(line.encode("utf-8"))
            self.snapshot_offsets.setdefault(json.loads(line)["config_hash"], offset)
        digests = {json.loads(record_lines[argv])["config_hash"] for argv in configs}
        if sum(d in self.snapshot_offsets for d in digests) != self.PRESEEDED:
            raise SetupError("a synthetic prior hash collides with a real config hash")

        # the cycle: every config once, and repeats of earlier ones
        order = list(configs)
        rng.shuffle(order)
        for argv in rng.sample(order[: len(order) // 2], self.REPEATS):
            first = order.index(argv)
            order.insert(rng.randint(first + 1, len(order)), argv)
        seen = set(preseeded)
        self._ops = []
        for argv in order:
            self._ops.append((argv, argv not in seen))
            seen.add(argv)
        self.new_lines = sum(writes for _, writes in self._ops)

        self.append_samples: list[tuple[int, int]] = []
        self._offsets: dict[str, int] = {}
        self.begin_cycle()

    @staticmethod
    def _configs(rng: random.Random) -> list[tuple]:
        """Twelve distinct commands; the seed varies their parameters, not
        their amount of work."""
        configs = []
        for alpha, beta in rng.sample(
            [(a, b) for a in (0.01, 0.05, 0.1, 0.2, 0.3) for b in (0.0001, 0.001, 0.01)], 3
        ):
            configs.append(("bounds-table", "--format", "json", "--alpha", str(alpha), "--beta", str(beta)))
        for detector in ("np", "type2-tv", "np", "type2-tv"):
            configs.append((
                "risk", "--oracle", "--detector", detector,
                "--k", str(rng.randint(2, 4)), "--n", str(rng.randint(3, 5)),
                "--gamma", str(rng.choice([0.3, 0.5, 0.8])),
                "--beta", str(rng.choice([0.2, 0.5])),
                "--trials", "300", "--seed", str(rng.getrandbits(31)),
            ))
        for _ in range(2):
            configs.append(("toy", "--seed", str(rng.getrandbits(31))))
        for _ in range(3):
            configs.append(("probe", "--trials", "200", "--seed", str(rng.getrandbits(31))))
        return configs

    def _restamp(self, line: str) -> str:
        record = json.loads(line)
        record["timestamp"] = self.FIXED_TIMESTAMP
        return json.dumps(record, sort_keys=True) + "\n"

    def _valid(self, argv: tuple, out: str) -> bool:
        command = argv[0]
        try:
            if command == "bounds-table":
                return not any(self.validators[command].iter_errors(json.loads(out)))
            envelope = json.loads(out.splitlines()[0])
        except (json.JSONDecodeError, IndexError):
            return False
        if set(envelope) != {"command", "config_hash", "payload"}:
            return False
        payload = envelope["payload"]
        if any(self.validators[command].iter_errors(payload)):
            return False
        if command == "probe":
            return payload["floor_satisfied"]
        if command == "risk":
            exact, est = payload["oracle_exact"], payload["risk"]
            noise = _noise(exact, est["trials"])
            if payload["detector"] == "np":
                return abs(est["p_hat"] - exact) <= noise
            return est["p_hat"] >= exact - noise
        return True

    def begin_cycle(self) -> None:
        with open(self.path, "wb") as fh:
            fh.write(self.snapshot)
        self._size = len(self.snapshot)
        self._offsets = dict(self.snapshot_offsets)

    def ops(self) -> list:
        return self._ops

    def run(self, op):
        argv, _ = op
        code, out, _ = invoke(list(argv) + ["--out", self.path])
        return code, out

    def check(self, op, result) -> bool:
        argv, writes = op
        code, out = result
        size = os.path.getsize(self.path)
        with open(self.path, "rb") as fh:
            fh.seek(self._size)
            added = fh.read()
        self._size = size
        if writes and added.count(b"\n") != 1:
            return False
        if not writes and added:
            return False
        return code == 0 and out == self.reference[argv] and self._valid(argv, out)

    def end_cycle(self) -> bool:
        with open(self.path, "rb") as fh:
            lines = sum(1 for _ in fh)
        return lines == self.snapshot_lines + self.new_lines

    def work_per_cycle(self) -> float:
        return len(self._ops)

    def working_set_bytes(self) -> int:
        return len(self.snapshot)

    def _append_hook(self, counters, args, kwargs, result, elapsed_ns) -> None:
        path, record = args
        digest = record["config_hash"]
        if result:
            line = json.dumps(record, sort_keys=True) + "\n"
            end = os.path.getsize(path)
            scanned = end - len(line.encode("utf-8"))
            self._offsets.setdefault(digest, end)
        else:
            scanned = self._offsets[digest]
            key = "harness.append_result.dedup_hits"
            counters[key] = counters.get(key, 0) + 1
        key = "harness.append_result.bytes_scanned"
        counters[key] = counters.get(key, 0) + scanned
        self.append_samples.append((scanned, elapsed_ns))

    def trace_hooks(self) -> dict:
        return {"harness.append_result": self._append_hook}

    def layer_metrics(self) -> dict:
        """Least-squares slope of append time against bytes scanned."""
        if len(self.append_samples) < 2:
            return {}
        x = np.array([s for s, _ in self.append_samples], dtype=float) / 1e6
        y = np.array([ns for _, ns in self.append_samples], dtype=float) / 1e3
        if np.ptp(x) == 0.0:
            return {}
        slope = float(np.polyfit(x, y, 1)[0])
        return {"harness.append_result.us_per_mb_scanned": slope}


WORKLOADS = {w.name: w for w in (McSmallK, ProbeLargeK, ExactGrid, CliRecords)}
