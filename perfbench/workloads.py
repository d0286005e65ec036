"""Workload table and seeded input generation.

Each workload is a list of quenchctrl CLI commands run one after the
other, each in a fresh interpreter, on one generated config file.  The
program receives only that file (and the verify seed); the shipped
configs are read here and never handed to it directly.

Seed 0 reproduces the shipped default config exactly, except for the
edits a workload applies on purpose (the 2D grid of `twod-large`, the
shorter march of `opt-default`).  Other seeds perturb the data profiles
and the config `seed` key inside ranges that keep every run converged
and keep the amount of work (PGD iterations, solves) close to seed 0,
so that the spread across seeds measures the machine, not the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CFG = ROOT / "configs" / "default.cfg"


@dataclass(frozen=True)
class Workload:
    # edits applied to configs/default.cfg for every seed
    edits: dict = field(default_factory=dict)
    # command templates; "{cfg}", "{out}" and "{seed}" are substituted
    commands: tuple = ()


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "opt-default": Workload(
        # 10 steps instead of 200 keep all 8 continuation levels (57 PGD
        # iterations at seed 0 against 62 at 200 steps) while one sample
        # takes 3-4 s instead of a minute, so that a run holds several samples
        edits={"steps": "10"},
        commands=(("optimize", "--config", "{cfg}", "--out", "{out}"),),
    ),
    "forward-default": Workload(
        commands=(
            ("simulate", "--config", "{cfg}", "--out", "{out}/quench"),
            ("simulate", "--config", "{cfg}", "--alpha", "0", "--out", "{out}/obstacle"),
            ("sweep-alpha", "--config", "{cfg}", "--out", "{out}/sweep"),
        ),
    ),
    "twod-large": Workload(
        edits={"dim": "2", "cells_x": "64", "cells_y": "64", "steps": "50", "horizon": "0.25"},
        commands=(("simulate", "--config", "{cfg}", "--out", "{out}/quench"),),
    ),
    "verify-suite": Workload(
        commands=(("verify", "--config", "{cfg}", "--seed", "{seed}"),),
    ),
}


def _set_key(text: str, key: str, value: str) -> str:
    """Replace the `key = ...` line of a config, or append one."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.split("#", 1)[0].split("=", 1)[0].strip() == key and "=" in line:
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    return text.rstrip("\n") + f"\n{key} = {value}\n"


def seeded_edits(name: str, seed: int) -> dict[str, str]:
    """Profile perturbations for a workload seed; empty for seed 0.

    The ranges are narrow on purpose, so that the amount of work stays
    put: with the control level within 0.2% and rho0 within 0.1% of the
    shipped values, opt-default took 55-57 PGD iterations on seeds 1-12
    (57 at seed 0); ten times wider ranges gave 55-60.
    """
    if seed == 0:
        return {}
    rng = random.Random(f"{name}/{seed}")
    return {
        "control": f"constant:{1.0 + rng.uniform(-0.002, 0.002):.6f}",
        "rho0": f"constant:{0.5 + rng.uniform(-0.001, 0.001):.6f}",
        "seed": str(rng.randrange(1, 2**31 - 1)),
    }


def config_text(name: str, seed: int) -> str:
    """The config file the program receives for this workload and seed."""
    text = DEFAULT_CFG.read_text()
    edits = {**WORKLOADS[name].edits, **seeded_edits(name, seed)}
    for key, value in edits.items():
        text = _set_key(text, key, value)
    return text


def command_lines(name: str, cfg: Path, out: Path, seed: int) -> list[list[str]]:
    subs = {"cfg": str(cfg), "out": str(out), "seed": str(seed)}
    return [[arg.format(**subs) for arg in cmd] for cmd in WORKLOADS[name].commands]
