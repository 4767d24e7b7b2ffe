"""The four audit workloads of the kcompress benchmark.

A workload is a fixed list of CLI audits.  One pass runs every audit once,
in order, through ``kcompress.cli.dispatch``; the harness repeats passes
until its time is up.

The harness scales each call's time by the host's speed, measured with a
reference kernel just before and after the call (see reference.py).  That
works best for calls that are short next to the few-second episodes in
which other tenants of a shared host slow this process down, so the
audits are cut into chunks of about 0.3 s or less on an idle core (0.6 s
for the largest pac chunk).  Chunk
c of a run with seed s gets ``--seed SEED_STRIDE * s + c``: the chunks draw
different samples, and the run's seed alone still decides every input.

The configs mirror the bundled ones in ``scripts/configs`` but live here, so
that an edit to a bundled config cannot silently change what the benchmark
measures.  Trial counts are smaller than the bundled ones so that a pass
takes a few seconds and a run holds several passes.
"""

from __future__ import annotations

from dataclasses import dataclass

RECTANGLE = {
    "mode": "partite", "k": 2, "scheme_id": "rectangle", "class_id": "rectangle",
    "measure": "uniform", "loss_id": "zero-one", "epsilon": 0.1, "delta": 0.1,
    "estimator": "exact",
}
SUM_THRESHOLD = dict(
    RECTANGLE, mode="nonpartite", scheme_id="sum-threshold", class_id="sum-threshold"
)
FAMILIES = (("rect", RECTANGLE), ("thresh", SUM_THRESHOLD))

# m_pac(0.1, 0.1) and twice that, as in the bundled PAC configs
PAC_M = {"rect": (16852, 33704), "thresh": (18171, 36342)}

# The epsilon x delta grid of scripts/sweep_guaranteed_sizes.py.  Each
# epsilon gets the smallest round scan window that holds m_pac for both
# deltas with room for the top-decile monotonicity check; the sweep script
# scans 2,000,000 for all of them, which would make one pass take 13 s.
MPAC_SCAN = {0.1: 50_000, 0.05: 200_000, 0.02: 800_000}
MPAC_DELTAS = (0.1, 0.01)
# m_pac does not depend on the seed, so every run checks these values.
MPAC_EXPECTED = {
    ("rect", 0.1, 0.1): 16852, ("rect", 0.1, 0.01): 17867,
    ("rect", 0.05, 0.1): 76962, ("rect", 0.05, 0.01): 80971,
    ("rect", 0.02, 0.1): 559771, ("rect", 0.02, 0.01): 584528,
    ("thresh", 0.1, 0.1): 18171, ("thresh", 0.1, 0.01): 20181,
    ("thresh", 0.05, 0.1): 82175, ("thresh", 0.05, 0.01): 90135,
    ("thresh", 0.02, 0.1): 591965, ("thresh", 0.02, 0.01): 641213,
}
TABLE_SCAN = 50_000
SEED_STRIDE = 16  # more than the chunks of any audit


@dataclass(frozen=True)
class Sizes:
    """How much work one pass does; FULL is what the benchmark measures.

    A pass runs ``chunks`` audits of ``trials`` trials (or table rows) each
    where both are given."""

    validity_m_max: int
    validity_chunks: int
    concentration_trials: int
    concentration_chunks: int
    pac_trials: int
    pac_chunks: int
    table_rows: int
    table_chunks: int
    mpac_epsilons: tuple


FULL = Sizes(
    validity_m_max=40, validity_chunks=5,
    concentration_trials=125, concentration_chunks=4,
    pac_trials=40, pac_chunks=2,
    table_rows=5_000, table_chunks=2, mpac_epsilons=(0.1, 0.05, 0.02),
)
TINY = Sizes(
    validity_m_max=6, validity_chunks=2,
    concentration_trials=5, concentration_chunks=2,
    pac_trials=2, pac_chunks=1,
    table_rows=10, table_chunks=2, mpac_epsilons=(0.1,),
)


@dataclass(frozen=True)
class Audit:
    """One CLI call and what its outputs must look like."""

    audit_id: str
    command: str
    config: dict
    flags: tuple = ()
    writes_out: bool = True
    records: int = 0          # lines expected in trials.jsonl
    rows: int = 0             # data rows expected in summary.csv
    m_pac: int | None = None  # value expected on stdout (mpac only)
    work: int = 0             # work units this audit contributes
    chunk: int = 0            # index among the chunks of one audit

    def config_text(self) -> str:
        lines = []
        for key, value in self.config.items():
            if isinstance(value, (tuple, list)):
                value = ", ".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, seed: int, out_dir: str) -> list:
        seed = SEED_STRIDE * seed + self.chunk
        args = [self.command, "--config", config_path, "--seed", str(seed), *self.flags]
        if self.writes_out:
            args += ["--out", out_dir]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    audits: tuple

    @property
    def work_per_pass(self) -> int:
        return sum(a.work for a in self.audits)


def _validity(s: Sizes) -> Workload:
    # one trial per m and chunk: the nonpartite chunks are the slow ones
    ms = tuple(range(2, s.validity_m_max + 1))
    audits = tuple(
        Audit(
            f"validity-{fam}-{c}", "validate-scheme",
            dict(base, m_values=ms, trials=1, seed=101),
            records=len(ms), rows=len(ms), work=len(ms), chunk=c,
        )
        for fam, base in FAMILIES for c in range(s.validity_chunks)
    )
    return Workload("validity", "samples", audits)


def _concentration(s: Sizes) -> Workload:
    ms = (50, 200, 1000)
    # two variants (fixed and random selection) per m
    n = s.concentration_trials * len(ms) * 2
    audits = tuple(
        Audit(
            f"concentration-{fam}-{c}", "concentration",
            dict(base, m_values=ms, trials=s.concentration_trials, seed=31),
            flags=("--engine", "fast"), records=n, rows=2 * len(ms), work=n, chunk=c,
        )
        for fam, base in FAMILIES for c in range(s.concentration_chunks)
    )
    return Workload("concentration", "records", audits)


def _pac(s: Sizes) -> Workload:
    # Every pac call also scans for m_pac, over 4 m by default; the scan
    # window of mpac at epsilon 0.1 finds the same m_pac and keeps the scans
    # of all chunks about as long as those of one unchunked audit per m.
    audits = tuple(
        Audit(
            f"pac-{fam}-{m}-{c}", "pac",
            dict(base, m_values=(m,), trials=s.pac_trials, seed=47),
            flags=("--engine", "fast", "--scan-limit", str(MPAC_SCAN[0.1])),
            records=s.pac_trials, rows=1, work=s.pac_trials, chunk=c,
        )
        for fam, base in FAMILIES for m in PAC_M[fam] for c in range(s.pac_chunks)
    )
    return Workload("pac", "records", audits)


def _bounds(s: Sizes) -> Workload:
    audits = []
    for fam, base in FAMILIES:
        for eps in s.mpac_epsilons:
            for delta in MPAC_DELTAS:
                scan = MPAC_SCAN[eps]
                audits.append(Audit(
                    f"mpac-{fam}-{eps}-{delta}", "mpac",
                    dict(base, epsilon=eps, delta=delta, m_values=(50,), trials=1, seed=0),
                    flags=("--scan-limit", str(scan)), writes_out=False,
                    m_pac=MPAC_EXPECTED[(fam, eps, delta)], work=scan,
                ))
    # consecutive blocks of m = 10, 20, ...; every block scans TABLE_SCAN again
    for fam, base in FAMILIES:
        for c in range(s.table_chunks):
            first = 10 * s.table_rows * c + 10
            ms = tuple(range(first, first + 10 * s.table_rows, 10))
            audits.append(Audit(
                f"bound-table-{fam}-{c}", "bound-table",
                dict(base, m_values=ms, trials=1, seed=0),
                flags=("--scan-limit", str(TABLE_SCAN)),
                rows=len(ms), work=len(ms) + TABLE_SCAN, chunk=c,
            ))
    return Workload("bounds", "m-values", tuple(audits))


def build_workloads(sizes: Sizes = FULL) -> dict:
    return {w.name: w for w in (_validity(sizes), _concentration(sizes), _pac(sizes), _bounds(sizes))}
