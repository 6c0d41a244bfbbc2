"""Workloads of the svbackend benchmark.

Each workload has a set-up step, which writes the program's inputs (an
experiment config, or a generator config plus i-vector and trial files)
into a directory, and a pass, which runs the program on those inputs and
returns what it wrote.  Inputs are a pure function of the input seed.

- ``desk-studies``: the three studies of the calibrated desk-scale
  config for one seed, through ``harness.run_experiment``.  58
  conditions of 100 enrol x 400 test trials: scoring, S-norm, EER/minDCF
  and per-vector projection dominate; training is under 2%.  Not in
  ``BENCHMARK.json``; run it by hand with ``run.py --workload
  desk-studies``.  Its one ~30 s pass per run spread 23-27% of its
  median over ten runs of the same code on a 2-vCPU shared host, whose
  speed drifts over minutes, and runs long enough to steady it do not
  fit three workloads into the benchmark's 57-minute limit for all
  runs.  Every layer it runs is measured on the other two; only
  ``dataset.duration_noise_*`` then reads 0.
- ``paper-train``: the idv-comparison study at paper-shaped training
  (dim 400, 1000 speakers x 10 sessions per domain, LDA 150, 100
  eigenvoices, 20 EM iterations) with a tiny evaluation grid.  LDA
  scatter, PLDA EM, synthesis and projection of 10k-vector sets dominate;
  scoring is under 6%.
- ``cli-files``: the README's hand-driven chain through
  ``svbackend.cli.cli(argv)`` on binary i-vector files, ending in one
  250 enrol x 1000 test grid (250k trials) at K=150.  The only workload
  that parses and writes i-vector, trial and score files.

Not a workload yet: the stress grid of 1000 evaluation speakers x 5
sessions (4M trials per condition).  ``cli-files`` spends about 40 us
per trial through score, S-norm, eval and the score files (16 us of it
in memory) and holds about 0.55 KB per trial, so one stress condition
needs about 3 min and 2.2 GB on the object-per-trial code, beyond a
run's 180 s.  It belongs in a benchmark change after the columnar core
lands.

Run as a script, ``python3 perfbench/workloads.py setup NAME SEED DIR``
performs one set-up in a fresh interpreter and prints its duration in
seconds: from before ``import svbackend`` to the last input written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import struct
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A per-condition result: (eer, min_dcf, n_target, n_nontarget).
Row = tuple[float, float, int, int]


@dataclass
class Outcome:
    """What one pass produced.

    ``rows`` maps a condition key to its metrics, read back from the
    report CSVs the program wrote.  ``steps`` lists each operation that
    is not itself a condition (a CLI subcommand) with whether it
    succeeded.  ``files`` maps each output file to its sha256.
    """

    rows: dict[str, Row] = field(default_factory=dict)
    steps: list[tuple[str, bool]] = field(default_factory=list)
    files: dict[str, str] = field(default_factory=dict)

    @property
    def trials(self) -> int:
        return sum(r[2] + r[3] for r in self.rows.values())


def add_src_to_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_report(path: Path, prefix: str, rows: dict[str, Row]) -> None:
    """Add the rows of a metric report CSV (the stable experiment schema)."""
    with open(path, newline="") as f:
        for r in csv.DictReader(f):
            rows[f"{prefix}|{r['condition']}|{r['system']}"] = (
                float(r["eer"]),
                float(r["min_dcf"]),
                int(r["n_target"]),
                int(r["n_nontarget"]),
            )


# ---------------------------------------------------------------------------
# study workloads (desk-studies, paper-train)

REPORTS = {
    "in-vs-out": "in_vs_out_report.csv",
    "idv-comparison": "idv_comparison_report.csv",
    "matched-snorm": "matched_snorm_report.csv",
}


def _domain_offset(dim: int, norm: float) -> list[float]:
    """The calibrated default's norm-12 domain offset, redrawn for ``dim``."""
    import numpy as np

    v = np.random.default_rng(0xD07).standard_normal(dim)
    return (norm * v / np.linalg.norm(v)).tolist()


def _paper_generator(seed: int, n_speakers: int, sessions: int):
    """The calibrated generator at dimension 400 with 100 eigenvoices."""
    from dataclasses import replace

    from svbackend import harness

    return replace(
        harness.default_experiment_config().generator,
        dim=400,
        eigenvoice_dim=100,
        domain_offset=_domain_offset(400, 12.0),
        n_speakers=n_speakers,
        sessions_per_speaker=sessions,
        seed=seed,
        subspace_seed=seed,
    )


def _setup_desk(seed: int, out: Path) -> None:
    from svbackend import harness

    harness.save_config(harness.default_experiment_config(seeds=(seed,)), out / "config.json")


def _setup_paper(seed: int, out: Path) -> None:
    from svbackend import harness

    cfg = harness.default_experiment_config(
        generator=_paper_generator(seed, n_speakers=1000, sessions=10),
        seeds=(seed,),
        lda_dim=150,
        plda_q=100,
        plda_iters=20,
        durations=(None,),
        eval_speakers=50,
        eval_sessions=2,
        cohort_speakers=100,
        cohort_sessions=5,
        swb_cohort_size=500,
    )
    harness.save_config(cfg, out / "config.json")


def _study(kind: str) -> tuple[Callable, Callable]:
    def run(inputs: Path, out: Path, span: Callable) -> Outcome:
        from svbackend import harness

        try:
            harness.run_experiment(harness.load_config(inputs / "config.json"), kind, out)
        except Exception:
            traceback.print_exc()
        return Outcome()

    def collect(out: Path, outcome: Outcome) -> None:
        for k, name in REPORTS.items():
            if kind in (k, "all") and (out / name).exists():
                _read_report(out / name, k, outcome.rows)
        outcome.files = {p.name: _sha256(p) for p in sorted(out.glob("*.csv"))}

    return run, collect


# ---------------------------------------------------------------------------
# cli-files

CLI_EVAL_SPEAKERS = 250  # x 5 sessions: 250 enrol, 1000 test, 250k trials
CLI_COHORT = (150, 10)


def _ivec_records(data: bytes) -> tuple[bytes, list[tuple[str, str, bytes]]]:
    """Split an IVEC1 file into its header prefix and (id, speaker, record bytes)."""
    magic = b"IVEC1"
    if data[:5] != magic:
        raise ValueError("not an IVEC1 file")
    dim, count = struct.unpack_from("<IQ", data, 5)
    off = 17
    records = []
    for _ in range(count):
        start = off
        texts = []
        for _ in range(3):
            (n,) = struct.unpack_from("<I", data, off)
            texts.append(data[off + 4 : off + 4 + n].decode("utf-8"))
            off += 4 + n
        off += 8 + 8 * dim
        records.append((texts[0], texts[1], data[start:off]))
    return magic + struct.pack("<I", dim), records


def _write_ivec(path: Path, head: bytes, records: list[bytes]) -> None:
    path.write_bytes(head + struct.pack("<Q", len(records)) + b"".join(records))


def _setup_cli(seed: int, out: Path) -> None:
    """Write the synth config, enrol/test/cohort i-vectors and the trial list.

    Evaluation and cohort sets come from ``svbackend synth`` with the
    harness's seed offsets (+101, +211), sharing the training subspace.
    Each evaluation speaker's first session enrols; the rest are tested
    against every enrolment.
    """
    from dataclasses import replace

    from svbackend import harness
    from svbackend.cli import cli

    def write_generator(gen, path: Path) -> None:
        cfg = harness.default_experiment_config(generator=gen)
        path.write_text(json.dumps(harness.config_to_dict(cfg)["generator"]))

    def synth(gen, name: str) -> Path:
        write_generator(gen, out / f"{name}.json")
        argv = ["synth", "--config", str(out / f"{name}.json"), "--out-dir", str(out / name)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli(argv) != 0:
                raise RuntimeError(f"set-up synth of {name} failed")
        return out / name / "in_domain.ivec"

    train = _paper_generator(seed, n_speakers=400, sessions=5)
    write_generator(train, out / "synth.json")
    eval_path = synth(replace(train, seed=seed + 101, n_speakers=CLI_EVAL_SPEAKERS), "eval")
    cohort_path = synth(
        replace(train, seed=seed + 211, n_speakers=CLI_COHORT[0],
                sessions_per_speaker=CLI_COHORT[1]),
        "cohort",
    )
    cohort_path.rename(out / "cohort.ivec")

    head, records = _ivec_records(eval_path.read_bytes())
    seen: set[str] = set()
    enrol, test = [], []
    for utt, spk, raw in records:
        (test if spk in seen else enrol).append((utt, spk, raw))
        seen.add(spk)
    _write_ivec(out / "enrol.ivec", head, [r for _, _, r in enrol])
    _write_ivec(out / "test.ivec", head, [r for _, _, r in test])
    with open(out / "trials.txt", "w") as f:
        for e, es, _ in enrol:
            for t, ts, _ in test:
                f.write(f"{e} {t} {'target' if es == ts else 'nontarget'}\n")


def _cli_steps(inputs: Path, out: Path) -> list[list[str]]:
    i, o = str(inputs), str(out)
    proj = "--idv", f"{o}/idv.bin", "--lda", f"{o}/lda.bin", "--length-norm"
    return [
        ["synth", "--config", f"{i}/synth.json", "--out-dir", f"{o}/data"],
        ["train-idv", "--out-domain", f"{o}/data/out_domain.ivec",
         "--in-domain", f"{i}/cohort.ivec", "--variant", "modified", "--output", f"{o}/idv.bin"],
        ["transform", "--data", f"{o}/data/out_domain.ivec", "--idv", f"{o}/idv.bin",
         "--output", f"{o}/od_comp.ivec"],
        ["train-lda", "--data", f"{o}/od_comp.ivec", "--dim", "150", "--output", f"{o}/lda.bin"],
        ["transform", "--data", f"{o}/od_comp.ivec", "--lda", f"{o}/lda.bin", "--length-norm",
         "--output", f"{o}/od_proj.ivec"],
        ["train-plda", "--data", f"{o}/od_proj.ivec", "--q", "100", "--iters", "15",
         "--output", f"{o}/model.plda"],
        *(
            ["transform", "--data", f"{i}/{name}.ivec", *proj, "--output", f"{o}/{name}_proj.ivec"]
            for name in ("enrol", "test", "cohort")
        ),
        ["score", "--model", f"{o}/model.plda", "--enrol", f"{o}/enrol_proj.ivec",
         "--test", f"{o}/test_proj.ivec", "--trials", f"{i}/trials.txt",
         "--output", f"{o}/scores.csv"],
        ["snorm", "--model", f"{o}/model.plda", "--scores", f"{o}/scores.csv",
         "--enrol", f"{o}/enrol_proj.ivec", "--test", f"{o}/test_proj.ivec",
         "--cohort", f"{o}/cohort_proj.ivec", "--output", f"{o}/snormed.csv"],
        ["eval", "--scores", f"{o}/snormed.csv", "--which", "normalized",
         "--condition", "snorm", "--system", "cli", "--report", f"{o}/eval.csv"],
    ]


def _cli_pass(inputs: Path, out: Path, span: Callable) -> Outcome:
    from svbackend.cli import cli

    outcome = Outcome()
    for argv in _cli_steps(inputs, out):
        sub = argv[0]
        with span(f"cli.{sub.replace('-', '_')}"), contextlib.redirect_stdout(io.StringIO()):
            try:
                ok = cli(argv) == 0
            except Exception:
                traceback.print_exc()
                ok = False
        if sub != "eval":  # eval's success is judged by its report row
            outcome.steps.append((sub, ok))
    return outcome


def _cli_collect(out: Path, outcome: Outcome) -> None:
    if (out / "eval.csv").exists():
        _read_report(out / "eval.csv", "cli", outcome.rows)
    outcome.files = {
        name: _sha256(out / name)
        for name in ("scores.csv", "snormed.csv", "eval.csv")
        if (out / name).exists()
    }


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """``run`` calls the program (the timed part); ``collect`` reads back its outputs."""

    name: str
    setup: Callable[[int, Path], None]
    run: Callable[[Path, Path, Callable], Outcome]
    collect: Callable[[Path, Outcome], None]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-studies", _setup_desk, *_study("all")),
        Workload("paper-train", _setup_paper, *_study("idv-comparison")),
        Workload("cli-files", _setup_cli, _cli_pass, _cli_collect),
    )
}


def _main(argv: list[str]) -> int:
    if len(argv) != 4 or argv[0] != "setup" or argv[1] not in WORKLOADS:
        print(f"usage: workloads.py setup {{{','.join(WORKLOADS)}}} SEED DIR", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    add_src_to_path()
    import svbackend  # noqa: F401  (import time is part of set-up)

    out = Path(argv[3])
    out.mkdir(parents=True, exist_ok=True)
    WORKLOADS[argv[1]].setup(int(argv[2]), out)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
