"""The benchmark's workloads: a synthetic dataset spec plus a run config each.

Every workload is a leave-one-subject-out (LOSO) run of `mexp` on clips drawn
from `SynthSpec` with the workload seed as the generator seed. The three of
them put the bottleneck in different layers, so a change to one layer has a
workload that should show it and others that should not move:

desk_iip_cold
    24 clips (4 subjects x 3 classes x 2) of 64x64 pixels and 16 frames.
    STLBP-IIP defaults (7x3 blocks, W=9, M=8, R=3, T=25), selection off, and
    an empty descriptor cache at the start of every timed run. Loads RPCA
    (most of the run), projection and encoding, and the cache write path.
    Bypasses selection and the cache read path.
casme_iip_warm
    65 clips (13 subjects x 5 classes x 1) of 64x16 pixels and 12-20 frames.
    The published 200 fps CASME II settings of `scripts/run_casme2.py` (6x1
    blocks, W=9, R=3, T=0), so 10 one-vs-one machines per fold; selection
    off. Set-up fills the cache, so the timed run reads every descriptor from
    it. Loads SMO (penalty cross validation and training) and support-vector
    prediction. Bypasses RPCA, projection, encoding and selection.
dis_sweep_warm
    80 clips (10 subjects x 2 classes x 4) of 64x28 pixels and 6-8 frames.
    DiSTLBP-IIP: selection on with the automatic P sweep (`selection_p = 0`),
    desk defaults otherwise; set-up fills the cache. Two classes put every
    training clip into the one class pair, so the Laplacian graph (one node
    per clip pair, 8*N^2 bytes) is as large as this clip count allows and
    selection is the largest stage, ahead of the distance tensor and SMO.
    Bypasses RPCA, projection and encoding.

Sizes keep one set-up plus one timed run within seconds on a 2-core machine.
The real CASME II database (26 subjects, 5 classes, about 250 clips) takes
about 40 s per warm run and 45 s to fill the cache at 64x64, and a 144-clip
DiSTLBP-IIP run over 30 s, too long to repeat within the benchmark's budget.
The warm workloads use small frames, the narrowest their block grid allows,
and the selection workload short clips: frame size and count change only the
set-up (RPCA on every clip), since descriptor length depends on the block grid
and the code widths alone.

The `tiny` scale is for the benchmark's own smoke tests: the same configs on
the smallest sets that LOSO with 3-fold penalty selection accepts.
"""

from dataclasses import dataclass, field

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict          # SynthSpec fields except the seed
    config: dict        # RunConfig fields except index and cache_dir
    warm: bool          # set-up fills the descriptor cache
    tiny_spec: dict = field(default_factory=dict)  # overrides for scale "tiny"

    def synth_spec(self, scale: str) -> dict:
        return {**self.spec, **self.tiny_spec} if scale == "tiny" else dict(self.spec)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_iip_cold",
            spec=dict(n_subjects=4, n_classes=3, clips_per_subject_per_class=2,
                      width=64, height=64, min_frames=16, max_frames=16),
            config=dict(),
            warm=False,
            tiny_spec=dict(n_subjects=3, width=28, min_frames=8, max_frames=10),
        ),
        Workload(
            "casme_iip_warm",
            spec=dict(n_subjects=13, n_classes=5, clips_per_subject_per_class=1,
                      width=16, height=64),
            config=dict(blocks_m=6, blocks_n=1, temporal_length=0),
            warm=True,
            tiny_spec=dict(n_subjects=4, min_frames=8, max_frames=10),
        ),
        Workload(
            "dis_sweep_warm",
            spec=dict(n_subjects=10, n_classes=2, clips_per_subject_per_class=4,
                      width=28, height=64, min_frames=6, max_frames=8),
            config=dict(selection="on", selection_p=0),
            warm=True,
            tiny_spec=dict(n_subjects=4, clips_per_subject_per_class=2),
        ),
    )
}
