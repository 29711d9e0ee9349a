"""The benchmark's workloads: one `cumasim` CLI invocation each.

Each workload regenerates one figure-style result the way a researcher
would, one cold process at a time (a closed loop with one client). The
`setup` entries name the (preset, users) pairs whose grid,
CorrelationMatrix and ChannelStats the CLI run builds, so the set-up
probe can time that work on its own.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]
    seeded: bool
    setup: tuple[tuple[str, int], ...]

    def argv(self, seed: int) -> list[str]:
        """CLI arguments for one run; unseeded workloads ignore `seed`."""
        return [*self.args, "--seed", str(seed)] if self.seeded else list(self.args)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact-secrecy",
            why="exact quadrature chain of ER, OP and secrecy outage; analytic and specfun do over 95% of the work, no Monte Carlo",
            args=(
                "sweep", "--preset", "6GHz-VC", "--eve-preset", "6GHz-NC", "--axis", "rs",
                "--values", "1", "--metrics", "er,op,sop", "--users", "20",
                "--exact", "on", "--no-mc",
            ),
            seeded=False,
            setup=(("6GHz-VC", 20), ("6GHz-NC", 20)),
        ),
        Workload(
            name="mc-large-grid",
            why="1834-port Monte Carlo where the eigh factor and dense NxN matmuls dominate and the exact path is bypassed",
            args=(
                "sweep", "--preset", "26GHz-C", "--axis", "users", "--values", "10",
                "--metrics", "er", "--trials", "1000", "--exact", "off",
            ),
            seeded=True,
            setup=(("26GHz-C", 20),),
        ),
    )
}
