"""Benchmark workloads: fixed (D, cutoff) command lists for the fuzzyd CLI.

A command is one `python -m fuzzyd.cli ...` invocation.  The configurations
are fixed because the CLI takes no random input; the benchmark seed only
orders the commands within a repetition and the calls of the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    kind: str  # "verify", "converge-product", "converge-x" or "build"
    D: int
    cutoff: int  # --lambda, or --lambda-max for converge

    @property
    def key(self):
        """Reference key and output directory name, e.g. 'verify-D3-L16'."""
        return f"{self.kind}-D{self.D}-L{self.cutoff}"

    def argv(self, out):
        """CLI arguments after `python -m fuzzyd.cli`, writing into `out`."""
        if self.kind == "verify":
            return ["verify", "--suite", "all", "--d", str(self.D), "--lambda", str(self.cutoff), "--out", str(out)]
        if self.kind == "build":
            return ["build", "--d", str(self.D), "--lambda", str(self.cutoff), "--out", str(out)]
        mode = self.kind.split("-", 1)[1]
        return ["converge", "--mode", mode, "--d", str(self.D), "--lambda-max", str(self.cutoff), "--out", str(out)]

    @property
    def harmonic_degree(self):
        """Highest exact harmonic degree the command builds (-1: none).

        verify --suite all runs verify_harmonics up to level min(cutoff+1, 4);
        the product diagnostic multiplies degree-1 harmonics into the basis one
        level above the top cutoff; x mode and build use no exact harmonics.
        """
        if self.kind == "verify":
            return min(self.cutoff + 1, 4)
        if self.kind == "converge-product":
            return self.cutoff + 1
        return -1


# Command groups, each a pair of configurations that stresses one layer.
GROUPS = {
    "verify-large-n": (Command("verify", 3, 16), Command("verify", 4, 8)),
    "build-io": (Command("build", 5, 8), Command("build", 4, 12)),
    "verify-high-d": (Command("verify", 5, 4), Command("verify", 6, 2)),
    "converge": (Command("converge-product", 3, 7), Command("converge-x", 4, 9)),
}

# Benchmark workloads: two groups each, so that one run measures long enough
# to average over the drift of a shared host.  dense-operators exercises the
# dense n x n operator builds and checks; exact-harmonics the exact harmonic
# basis and the diagnostics, where operator work is a small share.
WORKLOAD_GROUPS = {
    "dense-operators": ("verify-large-n", "build-io"),
    "exact-harmonics": ("verify-high-d", "converge"),
}
WORKLOADS = {name: sum((GROUPS[g] for g in groups), ()) for name, groups in WORKLOAD_GROUPS.items()}


def group_of(cmd):
    return next(g for g, cmds in GROUPS.items() if cmd in cmds)


def config_properties(cmd):
    """Hilbert dimension n and the dense-to-block flop ratio n^3 / sum_l d_l^3."""
    from fuzzyd.basis import dimension, level_dimension

    n = dimension(cmd.D, cmd.cutoff)
    blocks = sum(level_dimension(cmd.D, l) ** 3 for l in range(cmd.cutoff + 1))
    return {"D": cmd.D, "cutoff": cmd.cutoff, "n": n, "dense_to_block_flop_ratio": n**3 / blocks}
