"""The four benchmark workloads, driven through waveinv's public functions.

Each workload generates its inputs from the seed in ``__init__`` (the set-up,
which ends with the first completed forward evaluation on those inputs),
does one closed-loop iteration in :meth:`run` (the timed part), turns the
raw result into an :class:`Outcome` in :meth:`outcome` (untimed), and checks
its correctness gates over all iterations in :meth:`check`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from waveinv import bench, cli
from waveinv.stats import MATERIALS


@dataclass(frozen=True)
class RunRecord:
    """One optimizer run as seen from its trace."""

    optimizer: str
    material: str
    evals: int
    evals_to_success: int | None
    steps: int  # distinct iteration indices k in the trace
    status: str
    first_objective: float
    final_objective: float


@dataclass
class Outcome:
    """What one iteration did: its evaluations, runs, nodes and failures."""

    evals: int
    runs: list[RunRecord] = field(default_factory=list)
    nodes: int = 0
    failed_nodes: int = 0
    exit_codes: list[int] = field(default_factory=list)
    surfaces: dict[str, int] = field(default_factory=dict)  # scan: minima counts and manifold rank
    digest: str = ""
    bytes_written: int = 0
    bytes_read: int = 0

    @property
    def attempted(self) -> int:
        return len(self.runs) + self.nodes + len(self.exit_codes)

    @property
    def failed(self) -> int:
        return sum(r.status == "error" for r in self.runs) + self.failed_nodes + sum(c != 0 for c in self.exit_codes)

    def signature(self) -> tuple:
        """The evaluation counts, which must repeat exactly between iterations."""
        return self.evals, tuple(r.evals for r in self.runs), self.nodes


def _record(result: bench.BenchResult) -> list[RunRecord]:
    cfg = result.cfg
    return [
        RunRecord(
            optimizer=cfg.optimizer,
            material=cfg.material,
            evals=run.trace.eval_count,
            evals_to_success=run.evals_to_success,
            steps=len({rec.k for rec in run.trace.records}),
            status=run.trace.status,
            first_objective=run.trace.records[0].objective if run.trace.records else float("nan"),
            final_objective=run.trace.records[-1].objective if run.trace.records else float("nan"),
        )
        for run in result.runs
    ]


def _first_evaluation(cfg: bench.ExperimentConfig, ref: bench.Reference) -> None:
    evaluate = bench.make_objective(cfg, ref)[0]
    evaluate(ref.truth.as_vector())


def _signature_gate(outcomes: list[Outcome]) -> list[str]:
    first = outcomes[0].signature()
    return [
        f"iteration {i} evaluation counts differ from iteration 0"
        for i, o in enumerate(outcomes[1:], start=1)
        if o.signature() != first
    ]


class Workload:
    def close(self) -> None:
        """Remove what set-up left on disk."""


class InvertPhase(Workload):
    """The acceptance batches: PEEK, PA6 and PP with 20 LHS references each;
    modified-LM at 50 evaluations and BFGS at 200 on the same references and
    starts, autocorr-phase objective, all in memory."""

    def __init__(self, seed: int) -> None:
        self.batches = []
        for material in MATERIALS:
            cfg = bench.load_config(None, {"material": material, "n_refs": 20, "seed": seed, "eval_budget": 50})
            self.batches.append((cfg, bench.gen_refs(cfg)))
        _first_evaluation(self.batches[0][0], self.batches[0][1][0])

    def run(self) -> list[bench.BenchResult]:
        results = []
        for cfg, refs in self.batches:
            results.append(bench.optimize_batch(cfg, refs))
            results.append(bench.optimize_batch(replace(cfg, optimizer="bfgs", eval_budget=200), refs))
        return results

    def outcome(self, results: list[bench.BenchResult]) -> Outcome:
        runs = [rec for result in results for rec in _record(result)]
        return Outcome(evals=sum(r.evals for r in runs), runs=runs)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        failures = _signature_gate(outcomes)
        runs = outcomes[0].runs
        lm = [r for r in runs if r.optimizer == "modified-lm"]
        rate = sum(r.evals_to_success is not None for r in lm) / len(lm)
        if rate < 0.95:
            failures.append(f"modified-LM success {rate:.1%} < 95%")
        for material in MATERIALS:
            medians = {}
            for optimizer in ("modified-lm", "bfgs"):
                wins = [r.evals_to_success for r in runs if r.material == material and r.optimizer == optimizer and r.evals_to_success is not None]
                medians[optimizer] = float(np.median(wins)) if wins else float("inf")
            if not medians["modified-lm"] <= medians["bfgs"]:
                failures.append(f"{material}: LM median evaluations {medians['modified-lm']} > BFGS {medians['bfgs']}")
        return failures


class InvertRaw(Workload):
    """PEEK with 20 references; modified-LM at 50 evaluations on the signal
    and then the envelope objective."""

    def __init__(self, seed: int) -> None:
        cfg = bench.load_config(None, {"material": "PEEK", "n_refs": 20, "seed": seed, "eval_budget": 50})
        self.refs = bench.gen_refs(cfg)
        self.configs = [replace(cfg, objective="signal"), replace(cfg, objective="envelope")]
        _first_evaluation(self.configs[0], self.refs[0])

    def run(self) -> list[bench.BenchResult]:
        return [bench.optimize_batch(cfg, self.refs) for cfg in self.configs]

    def outcome(self, results: list[bench.BenchResult]) -> Outcome:
        runs = [rec for result in results for rec in _record(result)]
        return Outcome(evals=sum(r.evals for r in runs), runs=runs)

    def check(self, outcomes: list[Outcome]) -> list[str]:
        failures = _signature_gate(outcomes)
        for i, r in enumerate(outcomes[0].runs):
            if not r.final_objective <= r.first_objective:
                failures.append(f"run {i}: objective rose from {r.first_objective} to {r.final_objective}")
        return failures


class Scan(Workload):
    """PEEK around ``mean_reference``: 41x41 surfaces for autocorr-phase and
    signal, then the default 9x9 autocorr-phase manifold export."""

    def __init__(self, seed: int) -> None:
        self.cfg = bench.load_config(None, {"material": "PEEK", "seed": seed, "grid_n": 41, "grid_sigmas": 2.0})
        self.ref = bench.mean_reference(self.cfg)

    def run(self):
        phase = bench.surface_scan(self.cfg, self.ref)
        signal = bench.surface_scan(replace(self.cfg, objective="signal"), self.ref)
        return phase, signal, bench.manifold_export(self.cfg)

    def outcome(self, raw) -> Outcome:
        phase, signal, (params, projected, explained, rank) = raw
        nodes = phase.objective.size + signal.objective.size + len(params)
        return Outcome(
            evals=nodes,
            nodes=nodes,
            # a manifold with a non-finite projection counts as one failed node
            failed_nodes=phase.failed_nodes + signal.failed_nodes + int(not np.all(np.isfinite(projected))),
            surfaces={"autocorr-phase": phase.minima_count, "signal": signal.minima_count, "manifold_rank": rank},
        )

    def check(self, outcomes: list[Outcome]) -> list[str]:
        failures = _signature_gate(outcomes)
        for i, o in enumerate(outcomes):
            if o.surfaces != outcomes[0].surfaces:
                failures.append(f"iteration {i}: surface results differ from iteration 0")
        found = outcomes[0].surfaces
        if found["autocorr-phase"] != 1:
            failures.append(f"phase surface has {found['autocorr-phase']} interior minima, expected exactly 1")
        if found["signal"] < 2:
            failures.append(f"signal surface has {found['signal']} interior minima, expected at least 2")
        if found["manifold_rank"] < self.cfg.manifold_dim:
            failures.append(f"manifold rank {found['manifold_rank']} < {self.cfg.manifold_dim}")
        return failures


def _tree(root: Path) -> tuple[str, int]:
    """SHA-256 over relative paths and bytes of every file, and the byte total."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        total += len(data)
    return digest.hexdigest(), total


class CliPipeline(Workload):
    """``cli.main`` as gen-refs -> optimize (modified-lm, 50) -> optimize
    (bfgs, 200) -> report for PEEK with 20 references, in a fresh directory
    each iteration."""

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.seed = seed
        work_dir.mkdir(parents=True, exist_ok=True)
        common = "material = PEEK\nobjective = autocorr-phase\nn_refs = 20\n"
        self.lm_cfg = work_dir / "lm.cfg"
        self.bfgs_cfg = work_dir / "bfgs.cfg"
        self.lm_cfg.write_text(common + "optimizer = modified-lm\neval_budget = 50\n")
        self.bfgs_cfg.write_text(common + "optimizer = bfgs\neval_budget = 200\n")
        cfg = bench.load_config(self.lm_cfg, {"seed": seed})
        _first_evaluation(cfg, bench.mean_reference(cfg))

    def run(self) -> tuple[Path, list[int]]:
        out = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_dir))
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for cfg, command in ((self.lm_cfg, "gen-refs"), (self.lm_cfg, "optimize"), (self.bfgs_cfg, "optimize"), (self.lm_cfg, "report")):
                codes.append(cli.main(["--config", str(cfg), "--seed", str(self.seed), "--out", str(out), command]))
        return out, codes

    def outcome(self, raw) -> Outcome:
        out, codes = raw
        runs = []
        for optimizer in ("modified-lm", "bfgs"):
            index = out / "runs" / optimizer / "runs_index.csv"
            rows = [line.split(",") for line in index.read_text().splitlines() if line[:1].isdigit()] if index.exists() else []
            for row in rows:
                trace = [line.split(",") for line in (out / "runs" / optimizer / f"trace_{int(row[0]):03d}.csv").read_text().splitlines() if line[:1].isdigit()]
                runs.append(
                    RunRecord(
                        optimizer=optimizer,
                        material="PEEK",
                        evals=int(trace[-1][1]) if trace else 0,
                        evals_to_success=int(row[3]) if row[3] else None,
                        steps=len({line[0] for line in trace}),
                        status=row[1],
                        first_objective=float(trace[0][2]) if trace else float("nan"),
                        final_objective=float(trace[-1][2]) if trace else float("nan"),
                    )
                )
        digest, written = _tree(out)
        refs = sum(p.stat().st_size for p in (out / "refs").iterdir()) if (out / "refs").is_dir() else 0
        indices = sum(p.stat().st_size for p in (out / "runs").glob("*/runs_index.csv"))
        configs = 3 * self.lm_cfg.stat().st_size + self.bfgs_cfg.stat().st_size
        n_refs = len(list((out / "refs").glob("ref_*.csv"))) if (out / "refs").is_dir() else 0
        shutil.rmtree(out)
        return Outcome(
            evals=n_refs + sum(r.evals for r in runs),
            runs=runs,
            exit_codes=codes,
            digest=digest,
            bytes_written=written,
            bytes_read=2 * refs + indices + configs,
        )

    def check(self, outcomes: list[Outcome]) -> list[str]:
        failures = _signature_gate(outcomes)
        for i, o in enumerate(outcomes):
            if any(o.exit_codes):
                failures.append(f"iteration {i}: exit codes {o.exit_codes}")
            if o.digest != outcomes[0].digest:
                failures.append(f"iteration {i}: output directory differs from iteration 0")
        if len(outcomes[0].runs) != 40:
            failures.append(f"expected 40 runs on disk, found {len(outcomes[0].runs)}")
        return failures

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
