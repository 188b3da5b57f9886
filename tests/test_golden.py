"""Golden digests: every file a small fixed run writes, byte for byte.

Criterion 9 checks that reruns agree with each other; this pins them to
fixed values, so a refactor or speed-up that changes any output byte
fails here. Regenerate the table only for a deliberate output change.
"""

import hashlib

from obameter import ExperimentManifest, analyze, simulate, validate

GOLDEN_MANIFEST = {
    "experiment_id": "tiny",
    "seed": 11,
    "n_personas": 3,
    "repetitions": 2,
    "session": {"visit_budget": 40},
    "conditions": [{"geo": "ES"}, {"geo": "US", "dnt": True}],
}

GOLDEN_SHA256 = {
    "impressions.jsonl": "afbaeeb37967be0135a399aab0c88ebe9c845ad866178cd019732db4eb0a6e2c",
    "manifest.json": "68c1e19dba6e35847335f647a441ac54c8ce4e5fed2c9677ed812683ec61600d",
    "pages.jsonl": "2640a764012b9f3b3e85f32becdf605b6059a028428075c15b7ebdebdff17cdd",
    "performance.json": "121002f78326e625c950e6f1c896eebedebbc9ef311b37b5d7329c256402d9d1",
    "personas.json": "46896c9d37d442f3ee27e942c98a3c5939376cc869636bdd1a583576c668ec4f",
    "report.csv": "bcdb4125f3406a403280c81be2e214bf496f1c0f033e9d0e82a0bf6cb8008d4c",
    "report.json": "c3b18b2f0d641c157ff3fda21d159e414c10b42f78d2a41abc7bdd5d605a030f",
    "sessions.json": "b370a98562139e90a02d6de8d4f0ec06d36371419df2b7746c9bc9c9f6aa293a",
    "tags.sim-a.jsonl": "14fac2935d7ba0d2e4836b30854edb6d371b9afff3411a0533f83dadf7b94e7c",
    "tags.sim-b.jsonl": "68baa5c2491d632278e0d93f7fb5cbc897fdca0a9a0114d78a481af0e8ffabd8",
    "tags.sim-c.jsonl": "7ff9772544764d737842c7d16bbe5e93c84d6d94a6c8d3e58436f0505ee3a760",
    "visits.jsonl": "446a8fbd436727ffa6896a0f1fcbbe5009b4b6a66665afee727ad16f7169e794",
    "world.json": "61926a0591943ef680dc5d462ae47ec594caae9fce37b03566a3723b5ef8b9aa",
}


def test_every_output_file_matches_its_golden_digest(tmp_path):
    simulate(ExperimentManifest.from_dict(GOLDEN_MANIFEST), tmp_path)
    analyze(tmp_path)
    validate(tmp_path, spurious_levels=[0.0, 0.05])
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }
    assert written == GOLDEN_SHA256
