"""The benchmark's workloads: inputs derived from the workload seed, one
operation, the invariants its output must satisfy, and its artifact digest.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. Operation ``index`` always gets the same
input for the same seed, so index 0 doubles as the warm-up and as the input
of the byte-determinism check.

Why these four:

- ``reproduce`` is the headline closed loop (and the calibration-study and
  acceptance loop): 2048 Poisson draws per op, about 40% of them below the
  mean-30 sampler switch, 68 small fits, scan CSV and JSON writing.
- ``threshold`` sits on the other side of the sampler switch (mean 1e5, so
  almost every draw takes the PTRS path) and writes no scan CSV, so a change
  to the inverse-CDF path or to CSV/record handling should not move it.
- ``refit`` is the read side of the CSV layer plus a few large fits and the
  CLI, on a 64x64 grid per scan (a working set unlike reproduce's); it does
  no sampling.
- ``oracle`` is the only workload that touches ``lhv`` and ``states``.

The module imports ``spinpath``; callers put the checkout's ``src`` first on
``sys.path`` before importing it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from pathlib import Path

from spinpath import cli, pipeline, states
from spinpath.config import RunConfig

TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)
TOL = 1e-12  # relative tolerance for identities that hold up to rounding


def derive_seed(workload: str, seed: int, index: int) -> int:
    """63-bit program seed for one input of one workload."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _canonical(angle: float) -> float:
    return math.fmod(math.fmod(angle, 2.0 * math.pi) + 2.0 * math.pi, 2.0 * math.pi)


def _same_angle(a: float, b: float) -> bool:
    d = abs(_canonical(a) - _canonical(b))
    return min(d, 2.0 * math.pi - d) <= 1e-9


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="ascii"))


def artifact_digest(out_dir: Path, extra: str = "") -> str:
    """SHA-256 over every file under ``out_dir`` (relative name and bytes, in
    name order) followed by ``extra``, which carries in-memory results."""
    h = hashlib.sha256()
    root = Path(out_dir)
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(len(data).to_bytes(8, "big") + data)
    h.update(extra.encode("utf-8"))
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, fixture_dir: Path):
        self.seed = seed
        self.fixture_dir = Path(fixture_dir)

    def prepare(self) -> None:
        """Write the inputs every process of a run shares (once per run)."""

    def make_output(self, out: Path) -> None:
        """Create what ``op`` writes into, before the op is timed."""

    def op(self, index: int, out: Path):
        raise NotImplementedError

    def check(self, index: int, out: Path, result) -> list[str]:
        """Problems with one operation's output; empty when it is correct."""
        raise NotImplementedError

    def digest(self, out: Path, result) -> str:
        return artifact_digest(out)


class Reproduce(Workload):
    name = "reproduce"

    def op(self, index, out):
        config = RunConfig(seed=derive_seed(self.name, self.seed, index))
        return pipeline.reproduce_pipeline(config, out_dir=out)

    def check(self, index, out, summary):
        problems = []
        sp = summary["s_prime"]
        terms = summary["terms"]
        if len(terms) != 4:
            return [f"expected 4 CHSH terms, got {len(terms)}"]
        signs = [-1 if i == sp["negated_term"] else 1 for i in range(4)]
        total = sum(s * t["value"] for s, t in zip(signs, terms))
        if not _close(total, sp["value"]):
            problems.append(f"S' {sp['value']!r} != signed term sum {total!r}")
        hypot = math.hypot(sp["sigma_statistical"], sp["sigma_systematic"])
        if not _close(hypot, sp["sigma_total"]):
            problems.append(f"sigma_total {sp['sigma_total']!r} != hypot {hypot!r}")
        listed = ["summary.json", *summary["files"].values()]
        try:
            listed += [e["path"] for e in _read_json(out / "manifest.json")["scan_files"]]
            listed += _read_json(out / "fits.json")["residual_files"]
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"cannot list artifacts: {exc!r}")
        problems += [f"missing artifact {n}" for n in listed if not (out / n).is_file()]
        return problems


# The default contrast sweep, pinned here so the workload cannot drift with
# the program's defaults.
THRESHOLD_SWEEP = tuple(0.50 + 0.05 * k for k in range(11))


class Threshold(Workload):
    name = "threshold"

    def op(self, index, out):
        return pipeline.run_threshold(
            out,
            visibilities=THRESHOLD_SWEEP,
            counts_per_point=100_000.0,
            seed=derive_seed(self.name, self.seed, index),
            chi_points=32,
        )

    def check(self, index, out, report):
        rows = report["rows"]
        if len(rows) != len(THRESHOLD_SWEEP):
            return [f"{len(rows)} rows for {len(THRESHOLD_SWEEP)} contrasts"]
        problems = []
        for row, visibility in zip(rows, THRESHOLD_SWEEP):
            if row["visibility"] != visibility:
                problems.append(f"row for contrast {row['visibility']!r}, expected {visibility!r}")
            if not _close(row["s_analytic"], TWO_ROOT_TWO * visibility):
                problems.append(f"s_analytic {row['s_analytic']!r} != 2*sqrt(2)*{visibility!r}")
        return problems


class Refit(Workload):
    """Refits the same scan CSVs every op, through the CLI, in process."""

    name = "refit"
    # Larger than the reproduce grid, so the working set differs.
    CHI_POINTS = 64
    REPETITIONS = 64

    def __init__(self, seed, fixture_dir):
        super().__init__(seed, fixture_dir)
        self.scan_dir = self.fixture_dir / "refit_scans"
        # run_simulate names one CSV per default analyzer angle (four).
        self.csvs = [str(self.scan_dir / f"scan_{k:02d}.csv") for k in range(4)]

    def prepare(self):
        config = RunConfig(
            seed=derive_seed(self.name, self.seed, 0),
            chi_points=self.CHI_POINTS,
            repetitions=self.REPETITIONS,
        )
        pipeline.run_simulate(config, self.scan_dir)

    def op(self, index, out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            fit_code = cli.main(["fit", *self.csvs, "--format", "csv", "--out", str(out / "fit")])
            chsh_code = cli.main(
                ["chsh", "--fits", str(out / "fit" / "fits.json"), "--out", str(out / "chsh")]
            )
        return {"exit_codes": [fit_code, chsh_code], "stdout": stdout.getvalue()}

    def check(self, index, out, result):
        if result["exit_codes"] != [0, 0]:
            return [f"cli exit codes {result['exit_codes']}"]
        problems = []
        fits = _read_json(out / "fit" / "fits.json")
        chsh_text = (out / "chsh" / "chsh.json").read_text(encoding="ascii")
        chsh = json.loads(chsh_text)
        if not result["stdout"].endswith(chsh_text):
            problems.append("chsh stdout differs from chsh.json")
        if len(fits["fits"]) != 4:
            problems.append(f"expected 4 fits, got {len(fits['fits'])}")
        total = 0.0
        for term in chsh["terms"]:
            expected = _e_from_fits(fits["fits"], term["alpha_rad"], term["chi_rad"])
            if expected is None or not math.isclose(term["value"], expected, abs_tol=1e-9):
                problems.append(f"term {term['value']!r} inconsistent with fits.json ({expected!r})")
            total += term["sign"] * term["value"]
        if not _close(total, chsh["s_value"]):
            problems.append(f"s_value {chsh['s_value']!r} != signed term sum {total!r}")
        records = self.CHI_POINTS * self.REPETITIONS
        for name in fits["residual_files"]:
            lines = (out / "fit" / name).read_text(encoding="ascii").splitlines()
            if len(lines) - 1 != records:
                problems.append(f"{name}: {len(lines) - 1} rows for {records} records")
        return problems

    def digest(self, out, result):
        return artifact_digest(out, result["stdout"])


def _e_from_fits(fits, alpha: float, chi: float):
    """Correlation at (alpha, chi) recomputed from the fitted coefficients of
    the scans at alpha and alpha + pi; None if either scan is missing."""
    fit_a = next((f for f in fits if _same_angle(f["alpha_rad"], alpha)), None)
    fit_b = next((f for f in fits if _same_angle(f["alpha_rad"], alpha + math.pi)), None)
    if fit_a is None or fit_b is None:
        return None
    c, s = math.cos(chi), math.sin(chi)

    def rate(coeffs, sign):
        return coeffs[0] + sign * (coeffs[1] * c + coeffs[2] * s)

    n_pp, n_pm = rate(fit_a["coeffs"], 1), rate(fit_a["coeffs"], -1)
    n_mp, n_mm = rate(fit_b["coeffs"], 1), rate(fit_b["coeffs"], -1)
    return (n_pp + n_mm - n_pm - n_mp) / (n_pp + n_mm + n_pm + n_mp)


class Oracle(Workload):
    """Every op runs the same fixed grid of setting quadruples; the first is
    the maximal-violation setting, the rest are drawn from the seed."""

    name = "oracle"
    QUADRUPLES = 96
    SHOTS = 100_000

    def __init__(self, seed, fixture_dir):
        super().__init__(seed, fixture_dir)
        rng = random.Random(derive_seed(self.name, seed, 0))
        self.grid = [(math.pi / 2.0, 0.0, -math.pi / 4.0, math.pi / 4.0)]
        while len(self.grid) < self.QUADRUPLES:
            a1, a2, c1, c2 = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(4))
            if a1 != a2 and c1 != c2:
                self.grid.append((a1, a2, c1, c2))

    def make_output(self, out):
        # Each quadruple's directory and its (empty) lhv.json exist before the
        # op is timed. Creating 96 inodes costs 10 to 70 ms of kernel time
        # depending on what else the host's disk is doing, which would swamp
        # the op; rewriting one lhv.json 96 times instead makes ext4 flush it
        # on every close.
        for k in range(len(self.grid)):
            directory = out / f"q{k:03d}"
            directory.mkdir(parents=True)
            (directory / "lhv.json").touch()

    def op(self, index, out):
        bell = states.bell_state()
        results = []
        for k, (a1, a2, c1, c2) in enumerate(self.grid):
            report = pipeline.run_lhv(
                out / f"q{k:03d}",
                alphas=(a1, a2),
                chis=(c1, c2),
                shots=self.SHOTS,
                seed=derive_seed(self.name, self.seed, k),
                sign_convention=1,
            )
            e11, e12, e21, e22 = (
                states.expectation(bell, states.Setting(a, c)) for a in (a1, a2) for c in (c1, c2)
            )
            results.append((report, e11 - e12 + e21 + e22))
        return results

    def check(self, index, out, results):
        problems = []
        for k, (report, quantum) in enumerate(results):
            values = [row["s_value"] for row in report["strategies"]]
            if len(values) != 16 or any(abs(v) != 2.0 for v in values):
                problems.append(f"quadruple {k}: strategy values {values}")
            if report["max_abs_s"] != 2.0:
                problems.append(f"quadruple {k}: max_abs_s {report['max_abs_s']!r}")
            if abs(quantum) > TWO_ROOT_TWO * (1.0 + TOL):
                problems.append(f"quadruple {k}: quantum |S| {quantum!r} above 2*sqrt(2)")
            if k == 0 and not _close(quantum, TWO_ROOT_TWO):
                problems.append(f"maximal-violation quantum S {quantum!r} != 2*sqrt(2)")
        return problems

    def digest(self, out, results):
        return artifact_digest(out, "".join(repr(q) + "\n" for _, q in results))


WORKLOADS = {w.name: w for w in (Reproduce, Threshold, Refit, Oracle)}
