"""The four benchmark workloads.

Each workload is built once per process from the benchmark seed (that is its
set-up), then run in rounds.  Round ``r`` draws every seed it hands to the
program from ``derive(seed, workload, r)``, so round 0 is the same in every
run with the same seed, whatever the run length.  ``parts`` are the timed
calls of a round (timed one by one, so that the machine's speed can be
sampled between them); they call only public geoslice functions, through
module attributes so that the tracer's wrappers see them.  ``check`` is
untimed: it turns the parts' outputs into verdicts (one op each), a digest of
the numerical result and the counts that need no tracer.

Why these four:

* ``verify``  TV-decay ensembles (cap and disk); almost all kernel
  transitions, so replicate batching or counter-based streams show here.
* ``chain``   one long vMF chain with a JSONL sink; each step waits for the
  previous one, so batching cannot help and per-step overhead shows.
* ``checks``  1-D procedures on interval-set oracles plus the invariance and
  mutation tests; slice1d and the energy test dominate, the kernel less so.
* ``certify`` a Monte-Carlo certificate; stepping-out along geodesics with no
  shrinkage and no kernel, plus the support-gap scan.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
HEMISPHERE = "cap:sphere:2:psi=1.5707963267948966"
DISK = "convex-uniform:ball:2:r=1.0"


def derive(seed: int, *labels) -> int:
    """63-bit seed for one input, independent of geoslice's own seed mixing."""
    digest = hashlib.sha256(repr((int(seed),) + labels).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(seed: int, *labels) -> np.random.Generator:
    return np.random.default_rng(derive(seed, *labels))


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()[:16]


@dataclass
class Checked:
    verdicts: list   # [(label, ok)]; ok is a bool, or a bool array of one op per element
    digest: str
    counts: dict = field(default_factory=dict)
    step_s: list = field(default_factory=list)  # per part, its per-step latencies, if observed


class Workload:
    name = ""
    unit = ""
    units_per_round = 0

    def __init__(self, seed: int, g):
        self.seed, self.g = seed, g

    def inputs(self, r: int, tracer=None):
        raise NotImplementedError

    def parts(self, r: int, inp) -> list:
        """Zero-argument callables making up round ``r``."""
        raise NotImplementedError

    def run(self, r: int, inp) -> list:
        return [part() for part in self.parts(r, inp)]

    def check(self, r: int, out: list) -> Checked:
        raise NotImplementedError

    def unit_count(self, table) -> int:
        """Units of work in a traced round, counted from its spans."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class Verify(Workload):
    name = "verify"
    unit = "kernel transitions"
    REPLICATES = 1000
    CAP_N = (1, 5, 10, 20)
    DISK_N = (1, 3, 5)
    CAP_RHO = 1.0 - 1.0 / (4.0 * math.pi)
    DISK_RHO = 0.875
    units_per_round = REPLICATES * (sum(CAP_N) + sum(DISK_N))

    def __init__(self, seed, g):
        super().__init__(seed, g)
        self.cap = g.targets.from_spec(HEMISPHERE)
        self.disk = g.targets.from_spec(DISK)
        self.cap_x0 = g.harness.worst_start(self.cap)
        self.disk_x0 = g.harness.worst_start(self.disk)

    def _configs(self, r, cap, disk):
        k = self.g.kernel
        return (
            k.GssConfig(target=cap, w=TWO_PI, m=1, seed=derive(self.seed, self.name, r, "cap")),
            k.GssConfig(target=disk, w=1.0, m=math.inf, seed=derive(self.seed, self.name, r, "disk")),
        )

    def inputs(self, r, tracer=None):
        cap, disk = self.cap, self.disk
        if tracer is not None:
            cap, disk = tracer.traced_target(cap), tracer.traced_target(disk)
        return (cap, disk) + self._configs(r, cap, disk)

    def parts(self, r, inp):
        cap, disk, cfg_cap, cfg_disk = inp
        h = self.g.harness
        return [
            lambda: h.verify_uniform_ergodicity(
                cap, cfg_cap, self.cap_x0, self.CAP_N, self.REPLICATES,
                threads=1, epsilon_mode="corollary",
            ),
            lambda: h.verify_uniform_ergodicity(
                disk, cfg_disk, self.disk_x0, self.DISK_N, self.REPLICATES, threads=1
            ),
        ]

    def check(self, r, out):
        verdicts, parts = [], []
        for label, curve, rho in (("cap", out[0], self.CAP_RHO), ("disk", out[1], self.DISK_RHO)):
            for p in curve.points:
                verdicts.append((f"{label} n={p.n} tv within envelope", bool(p.passed)))
                parts.append((p.n, p.tv, p.se, p.envelope, p.passed))
            verdicts.append((f"{label} certified", bool(curve.certified)))
            verdicts.append((f"{label} rho", abs(curve.rho - rho) <= 1e-12))
            parts.append((curve.rho, curve.bias, curve.certified, curve.passed))
        return Checked(verdicts, sha(*parts))

    def unit_count(self, table):
        return table.count("kernel.transition")

    def threads_speedup(self, threads: int) -> float:
        """Wall time of one sub-ensemble at 1 thread over that at ``threads``."""
        cfg = self._configs(0, self.cap, self.disk)[0]
        times = []
        for t in (1, threads):
            t0 = time.perf_counter()
            self.g.kernel.endpoint_ensemble(self.cap_x0, 5, self.REPLICATES, cfg, threads=t)
            times.append(time.perf_counter() - t0)
        return times[0] / times[1]


class TimedSink:
    """File sink that stamps the time each line reaches it."""

    def __init__(self, fh, write=None):
        self.fh = fh
        self.stamps = []
        self._write = write or fh.write

    def write(self, text: str) -> int:
        n = self._write(text)
        self.stamps.append(time.perf_counter())
        return n


class Chain(Workload):
    name = "chain"
    unit = "chain steps"
    STEPS = 10_000
    REPLAYS = 2      # runs of each round's chain, same seed and start
    KAPPA = 2.0
    BATCHES = 50
    units_per_round = STEPS * REPLAYS

    def __init__(self, seed, g):
        super().__init__(seed, g)
        self.vmf = g.targets.from_spec(f"vmf:sphere:2:kappa={self.KAPPA}")
        self.mu = self.vmf.params["mean"]
        x0 = rng_for(seed, self.name, "x0").standard_normal(3)
        self.starts = {0: x0 / np.linalg.norm(x0)}
        tmp = os.environ.get("PERFBENCH_TMP") or Path(__file__).resolve().parent.parent / ".perfbench-tmp"
        self.tmp = Path(tmp) / f"chain-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)

    def inputs(self, r, tracer=None):
        vmf = self.vmf if tracer is None else tracer.traced_target(self.vmf)
        cfg = self.g.kernel.GssConfig(target=vmf, w=TWO_PI, m=1, seed=derive(self.seed, self.name, r))
        sinks = []
        for k in range(self.REPLAYS):
            path = self.tmp / f"round{r}-{k}.jsonl"
            fh = open(path, "w", encoding="utf-8")
            write = None if tracer is None else tracer.wrap("kernel.sink.write", fh.write)
            sinks.append((TimedSink(fh, write), path))
        return cfg, sinks

    def parts(self, r, inp):
        cfg, sinks = inp
        return [lambda sink=sink, path=path: self._chain(r, cfg, sink, path) for sink, path in sinks]

    def _chain(self, r, cfg, sink, path):
        x0 = self.g.manifolds.Point(self.starts[r])
        with sink.fh:
            rec = self.g.kernel.run_chain(x0, self.STEPS, cfg, sink=sink)
        return rec, sink.stamps, path

    def check(self, r, out):
        replays = []
        for _, _, path in out:
            replays.append(path.read_bytes())
            path.unlink()
        rec, data = out[0][0], replays[0]
        lines = data.decode().splitlines()
        header = json.loads(lines[0]) if lines else {}
        records = [json.loads(s) for s in lines[1:]]
        same = all(d == data for d in replays[1:])
        verdicts = [("every replay writes the same file", same), (
            "header plus one record per step",
            "geoslice_chain" in header and len(records) == self.STEPS
            and [d["i"] for d in records] == list(range(1, self.STEPS + 1)),
        )]
        xs = np.array([d["x"] for d in records], dtype=float).reshape(-1, 3)
        verdicts.append((
            "record on the sphere with positive density",
            (np.abs(np.linalg.norm(xs, axis=1) - 1.0) <= 1e-9)
            & np.array([self.vmf.density(x) > 0.0 for x in xs], dtype=bool),
        ))
        # batch means of x.mu against E[x.mu] = coth(kappa) - 1/kappa
        dots = (xs @ self.mu)[: len(xs) // self.BATCHES * self.BATCHES]
        means = dots.reshape(self.BATCHES, -1).mean(axis=1)
        se = float(np.std(means, ddof=1)) / math.sqrt(self.BATCHES)
        expect = 1.0 / math.tanh(self.KAPPA) - 1.0 / self.KAPPA
        verdicts.append(("batch-means mean of x.mu", abs(float(means.mean()) - expect) <= 5.0 * se))
        self.starts[r + 1] = rec.states[-1].coords
        counts = {
            "expansions": sum(d.expansions for d in rec.diagnostics),
            "shrink_draws": sum(d.shrink_iterations for d in rec.diagnostics),
        }
        steps = [np.diff(stamps) for _, stamps, _ in out]
        return Checked(verdicts, sha(data), counts, steps if same else steps[:1])

    def unit_count(self, table):
        return table.count("kernel.transition")

    def close(self):
        for p in self.tmp.glob("*"):
            p.unlink()
        self.tmp.rmdir()


def exact_covering(ivs, m: float, w: float, grid: int = 200_000) -> float:
    """P(stepping-out interval from 0 reaches sup of S above 0), by quadrature.

    Only the right end matters: the interval always contains 0, and it covers
    S cap [0, inf) exactly when its right end passes b = sup S.  Given the
    offset U and the right budget R the right end is deterministic, so the
    probability is an average over a midpoint grid of U (and over the split
    J, uniform on 1..m, for finite m).  This re-derives the law from the
    procedure's definition without calling geoslice.
    """
    b_sup = max(b for _, b in ivs)
    u = (np.arange(grid) + 0.5) * (w / grid)
    limits = [None] if math.isinf(m) else [int(m) + 1 - j for j in range(1, int(m) + 1)]
    probs = []
    for lim in limits:
        tee = np.zeros(grid)
        active = np.ones(grid, dtype=bool)
        i = 1
        while active.any():
            pos = -u + i * w
            inside = np.zeros(grid, dtype=bool)
            for a, b in ivs:
                inside |= (pos > a) & (pos < b)
            stop = active & (~inside | (lim is not None and i == lim))
            tee[stop] = i
            active &= ~stop
            i += 1
        probs.append(float(np.mean(-u + tee * w > b_sup)))
    return float(np.mean(probs))


class Checks(Workload):
    name = "checks"
    unit = "1-D procedure calls"
    DRAWS = 20_000          # per interval-set configuration
    BUDGETS = (1, 2, 4, math.inf)
    INVARIANCE_SAMPLES = 10_000
    # stepping-out + shrinkage per configuration, then one transition (two
    # calls) per disk sample and one stepping-out per mutant sample
    units_per_round = 2 * DRAWS * len(BUDGETS) + 3 * INVARIANCE_SAMPLES

    def __init__(self, seed, g):
        super().__init__(seed, g)
        self.disk = g.targets.from_spec(DISK)
        self.cap = g.targets.from_spec(HEMISPHERE)

    def interval_sets(self, r):
        """Two-piece sets around 0 with one gap, one per budget m."""
        rng = rng_for(self.seed, self.name, r, "sets")
        out = []
        for m in self.BUDGETS:
            a0, b0 = -rng.uniform(0.3, 1.5), rng.uniform(0.05, 0.6)
            c0 = b0 + rng.uniform(0.1, 0.6)
            d0 = c0 + rng.uniform(0.3, 1.2)
            w = float(rng.uniform(0.5, 1.5))
            lo, hi = -float(rng.uniform(0.2, 1.5)), float(rng.uniform(0.2, 1.5))
            out.append(([(float(a0), float(b0)), (float(c0), float(d0))], m, w, (lo, hi)))
        return out

    def inputs(self, r, tracer=None):
        disk, cap = self.disk, self.cap
        if tracer is not None:
            disk, cap = tracer.traced_target(disk), tracer.traced_target(cap)
        k = self.g.kernel
        return (
            self.interval_sets(r),
            disk, k.GssConfig(target=disk, w=1.0, m=math.inf, seed=derive(self.seed, self.name, r, "disk")),
            cap, k.GssConfig(target=cap, w=TWO_PI, m=1, seed=derive(self.seed, self.name, r, "cap")),
        )

    def parts(self, r, inp):
        sets, disk, cfg_disk, cap, cfg_cap = inp
        h, n = self.g.harness, self.INVARIANCE_SAMPLES
        return [
            lambda: self._interval_sets(r, sets),
            lambda: h.invariance_test(disk, cfg_disk, n, seed=cfg_disk.seed),
            lambda: h.invariance_test(cap, cfg_cap, n, seed=cfg_cap.seed, broken=True),
        ]

    def _interval_sets(self, r, sets):
        s1 = self.g.slice1d
        covering, shrunk = [], []
        for i, (ivs, m, w, (lo, hi)) in enumerate(sets):
            rng = rng_for(self.seed, self.name, r, "draws", i)
            covering.append(s1.estimate_covering_probability(
                ivs, 0.0, math.inf, s1.StepOutParams(w, m), self.DRAWS, rng
            ))
            oracle = lambda t, ivs=ivs: any(a < t < b for a, b in ivs)
            shrunk.append(np.array(
                [s1.reeled_shrinkage(oracle, lo, hi, rng).theta for _ in range(self.DRAWS)]
            ))
        return covering, shrunk

    def check(self, r, out):
        (covering, shrunk), inv, mutant = out
        verdicts, parts = [], []
        for (ivs, m, w, (lo, hi)), (est, _), thetas in zip(self.interval_sets(r), covering, shrunk):
            exact = exact_covering(ivs, m, w)
            se = math.sqrt(exact * (1.0 - exact) / self.DRAWS)
            verdicts.append((f"covering m={m}: {est:.4f} vs exact {exact:.4f}",
                             abs(est - exact) <= 5.0 * se + 1e-4))
            in_set = np.zeros(len(thetas), dtype=bool)
            for a, b in ivs:
                in_set |= (thetas > a) & (thetas < b)
            inside = bool(np.all(in_set & (thetas > lo) & (thetas < hi)))
            # mass bound for A = the piece around 0, clipped to the interval
            a_lo, a_hi = max(ivs[0][0], lo), min(ivs[0][1], hi)
            bound = (a_hi - a_lo) / min(hi - lo, ivs[-1][1] - ivs[0][0])
            p = float(np.mean((thetas > a_lo) & (thetas < a_hi)))
            se_p = math.sqrt(max(p * (1.0 - p), 1e-12) / len(thetas))
            verdicts.append((f"shrinkage m={m}: draws in S and mass bound",
                             inside and p >= bound - 5.0 * se_p))
            parts.append((est, thetas.tobytes()))
        verdicts.append((f"disk invariance p={inv.p_value:.3g} > 0.001", bool(inv.passed)))
        verdicts.append((f"mutant p={mutant.p_value:.3g} < 1e-6", mutant.p_value < 1e-6 and not mutant.passed))
        parts += [(inv.statistic, inv.p_value), (mutant.statistic, mutant.p_value)]
        return Checked(verdicts, sha(*parts))

    def unit_count(self, table):
        return table.count("slice1d.stepping_out") + table.count("slice1d.reeled_shrinkage")


class Certify(Workload):
    name = "certify"
    unit = "stepping-out draws attempted"
    M, W = 4, 1.0
    PROBES, RUNS = 16, 2000
    GAP_GEODESICS, GAP_LEVELS = 50, 16
    units_per_round = PROBES * RUNS

    def __init__(self, seed, g):
        super().__init__(seed, g)
        self.cap = g.targets.from_spec(HEMISPHERE)
        self.corollary_eps = g.bounds.full_report(self.cap, self.M, self.W, "corollary").epsilon

    def inputs(self, r, tracer=None):
        return self.cap if tracer is None else tracer.traced_target(self.cap)

    def parts(self, r, cap):
        return [lambda: self._certify(r, cap)]

    def _certify(self, r, cap):
        report = self.g.bounds.full_report(
            cap, self.M, self.W, "monte-carlo", rng=rng_for(self.seed, self.name, r, "eps"),
            mc_probes=self.PROBES, mc_runs=self.RUNS,
        )
        gap = self.g.targets.estimate_max_gap(
            cap, self.GAP_GEODESICS, self.GAP_LEVELS, rng_for(self.seed, self.name, r, "gap")
        )
        return report, gap

    def check(self, r, out):
        report, gap = out[0]
        eps, se = report.epsilon, report.epsilon_se
        verdicts = [
            ("monte-carlo report is not certified", not report.certified),
            (f"eps {eps:.4f} >= corollary {self.corollary_eps:.4f} - 3 SE",
             eps >= self.corollary_eps - 3.0 * se),
            # a hemisphere meets every great circle in one arc: no gap beyond grid steps
            (f"estimated gap {gap:.3g} within two grid steps of 0", gap <= 2.0 * math.pi / 4096),
        ]
        return Checked(verdicts, sha(json.dumps(report.to_dict(), sort_keys=True), gap))

    def unit_count(self, table):
        return int((table.mask("slice1d.stepping_out") & table.under("bounds.estimate_epsilon")).sum())


WORKLOADS = {w.name: w for w in (Verify, Chain, Checks, Certify)}
