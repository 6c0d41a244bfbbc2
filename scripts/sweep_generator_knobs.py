#!/usr/bin/env python3
"""Sweep generator/pipeline knobs to check the domain-mismatch trends.

Used to calibrate the desk-scale defaults: for each knob combination it
prints the seed-averaged full-length EERs of the three out-domain
systems (none / IDV / modified IDV), the in-vs-out relative gain per
duration, and whether the target orderings hold.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, "src")

from svbackend.dataset import GeneratorConfig
from svbackend.harness import (
    SYSTEM_IDV,
    SYSTEM_IN,
    SYSTEM_MODIFIED_IDV,
    SYSTEM_OUT,
    _default_domain_offset,
    default_experiment_config,
    run_experiment,
)


def trial_config(
    offset_norm: float,
    channel_scale: float,
    sigma0: float,
    idv_count: int | None,
    seeds: tuple[int, ...],
    durations: tuple[float | None, ...],
    dim: int = 50,
    n_speakers: int = 200,
    eval_speakers: int = 100,
):
    gen = GeneratorConfig(
        dim=dim,
        n_speakers=n_speakers,
        sessions_per_speaker=5,
        eigenvoice_dim=10,
        speaker_scale=1.0,
        channel_scale=channel_scale,
        domain_offset=_default_domain_offset(dim, offset_norm),
        duration_ref_sec=120.0,
        duration_noise_scale=sigma0,
        seed=0,
    )
    return default_experiment_config(
        generator=gen,
        seeds=seeds,
        durations=durations,
        eval_speakers=eval_speakers,
        idv_out_count=idv_count,
        idv_in_count=idv_count,
        snorm="off",
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--offsets", default="3,4,5")
    ap.add_argument("--channels", default="1.0,1.25")
    ap.add_argument("--sigma0s", default="0.7,0.9")
    ap.add_argument("--idv-counts", default="120,200")
    ap.add_argument("--seeds", default="0,1,2,3,4")
    ap.add_argument("--skip-in-vs-out", action="store_true")
    ap.add_argument("--skip-idv", action="store_true")
    args = ap.parse_args()

    offsets = [float(x) for x in args.offsets.split(",")]
    channels = [float(x) for x in args.channels.split(",")]
    sigma0s = [float(x) for x in args.sigma0s.split(",")]
    idv_counts = [None if x == "all" else int(x) for x in args.idv_counts.split(",")]
    seeds = tuple(int(s) for s in args.seeds.split(","))
    durations = (None, 50.0, 40.0, 30.0, 20.0, 10.0)

    for off, ch, s0, ic in itertools.product(offsets, channels, sigma0s, idv_counts):
        cfg = trial_config(off, ch, s0, ic, seeds, durations)
        t0 = time.time()
        with tempfile.TemporaryDirectory() as td:
            if not args.skip_in_vs_out:
                res = run_experiment(cfg, "in-vs-out", td)["in-vs-out"]
                gains = []
                for d in cfg.durations:
                    lbl = "full" if d is None else f"{d:g}"
                    out_v = res.mean_value(lbl, SYSTEM_OUT, "eer")
                    in_v = res.mean_value(lbl, SYSTEM_IN, "eer")
                    gains.append((lbl, out_v, in_v, 100 * (out_v - in_v) / out_v))
                gain_str = " ".join(f"{l}:{g:+.1f}%" for l, _, _, g in gains)
                eer_str = " ".join(f"{l}:{o:.3f}/{i:.3f}" for l, o, i, _ in gains)
            else:
                gain_str = eer_str = "-"
            if not args.skip_idv:
                cfg_full = replace(cfg, durations=(None,))
                res2 = run_experiment(cfg_full, "idv-comparison", td)["idv-comparison"]
                vals = {
                    s: res2.mean_value("full", f"{s}|snorm=off", "eer")
                    for s in (SYSTEM_OUT, SYSTEM_IDV, SYSTEM_MODIFIED_IDV)
                }
                rel_oi = 100 * (vals[SYSTEM_OUT] - vals[SYSTEM_IDV]) / vals[SYSTEM_OUT]
                rel_im = 100 * (vals[SYSTEM_IDV] - vals[SYSTEM_MODIFIED_IDV]) / vals[SYSTEM_IDV]
                idv_str = (
                    f"none={vals[SYSTEM_OUT]:.4f} idv={vals[SYSTEM_IDV]:.4f} "
                    f"mod={vals[SYSTEM_MODIFIED_IDV]:.4f} (idv {rel_oi:+.1f}%, mod {rel_im:+.1f}%)"
                )
            else:
                idv_str = "-"
        dt = time.time() - t0
        print(f"offset={off} ch={ch} s0={s0} idv_n={ic} [{dt:.0f}s]")
        print(f"  in-vs-out EER out/in: {eer_str}")
        print(f"  gains: {gain_str}")
        print(f"  idv: {idv_str}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
