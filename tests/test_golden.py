"""Golden digests: every file a small fixed run writes, byte for byte.

Criterion 9 checks that reruns agree with each other; this pins them to
fixed values, so a refactor or speed-up that changes any output byte
fails here. Regenerate a table only for a deliberate output change.

Besides the default serving rules, two variants pin the branches the
default manifest never takes: DNT suppression with pooled aggregator
profiles, and profile decay.
"""

import hashlib
import json

import pytest

from obameter import ExperimentManifest, analyze, simulate, validate

GOLDEN_MANIFEST = {
    "experiment_id": "tiny",
    "seed": 11,
    "n_personas": 3,
    "repetitions": 2,
    "session": {"visit_budget": 40},
    "conditions": [{"geo": "ES"}, {"geo": "US", "dnt": True}],
}

# files the sim section cannot change
_SHARED_SHA256 = {
    "pages.jsonl": "2640a764012b9f3b3e85f32becdf605b6059a028428075c15b7ebdebdff17cdd",
    "personas.json": "46896c9d37d442f3ee27e942c98a3c5939376cc869636bdd1a583576c668ec4f",
    "tags.sim-a.jsonl": "14fac2935d7ba0d2e4836b30854edb6d371b9afff3411a0533f83dadf7b94e7c",
    "tags.sim-b.jsonl": "68baa5c2491d632278e0d93f7fb5cbc897fdca0a9a0114d78a481af0e8ffabd8",
    "tags.sim-c.jsonl": "7ff9772544764d737842c7d16bbe5e93c84d6d94a6c8d3e58436f0505ee3a760",
    "visits.jsonl": "446a8fbd436727ffa6896a0f1fcbbe5009b4b6a66665afee727ad16f7169e794",
}

GOLDEN_SHA256 = {
    **_SHARED_SHA256,
    "impressions.jsonl": "afbaeeb37967be0135a399aab0c88ebe9c845ad866178cd019732db4eb0a6e2c",
    "manifest.json": "68c1e19dba6e35847335f647a441ac54c8ce4e5fed2c9677ed812683ec61600d",
    "performance.json": "121002f78326e625c950e6f1c896eebedebbc9ef311b37b5d7329c256402d9d1",
    "report.csv": "bcdb4125f3406a403280c81be2e214bf496f1c0f033e9d0e82a0bf6cb8008d4c",
    "report.json": "c3b18b2f0d641c157ff3fda21d159e414c10b42f78d2a41abc7bdd5d605a030f",
    "sessions.json": "b370a98562139e90a02d6de8d4f0ec06d36371419df2b7746c9bc9c9f6aa293a",
    "world.json": "61926a0591943ef680dc5d462ae47ec594caae9fce37b03566a3723b5ef8b9aa",
}

DNT_SHARED_SIM = {"honor_dnt": True, "share_profiles": True}
DNT_SHARED_SHA256 = {
    **_SHARED_SHA256,
    "impressions.jsonl": "4748d9969add678cb3758f935e75af14f9ccf1a206f6758fd5fcf00a0bd96589",
    "manifest.json": "0a2fd2d068a2ecc264eb8f0af0779439d3e78589d48fe148a1c3a6f12eb5b7db",
    "performance.json": "0a87bf072ef26321ffe84ac7c51a2f968b968a46f3662bd73191830e742b5f3f",
    "report.csv": "7d8362cc2c80a580777e2e2c18c18170f58404d12adcf0ef1dceb759370d6206",
    "report.json": "39092ef1ba989894cbed952dca21eeb769d5a75817c920eb059b3a64d8aa0ba3",
    "sessions.json": "57172f35a9517a2656b75a736237e24b5921222d92666aed870f2e3351585bbe",
    "world.json": "4e7f5b2b92ee9fd71df7b2e3c4b5344d6ff8dae21d7a1426d31b999d0e999de1",
}

DECAY_SIM = {"profile_decay_halflife": 600.0}
DECAY_SHA256 = {
    **_SHARED_SHA256,
    "impressions.jsonl": "af8fd1a379bf4b9f750a7aa955ee17974b1a17099ab847918bf577326820a077",
    "manifest.json": "31f1a061c0a8be8bc34dc8f0b4d12f35f3cf733f4cc9a76919e7a03aa5090ebc",
    "performance.json": "bd42bec52ed223e2282f0b9c5aef65125b050f0f74974d0981df8e510903449d",
    "report.csv": "a992835c6752fa2bfaaf744b622d0c79845b25dc05db5fea5f4f0d954b031615",
    "report.json": "e9112e224b5f58aa41776c3327d6421138a593cf1e0633539f35520efe142078",
    "sessions.json": "f3611055d9ab731a061dbf2f34f07a26ab87b8008c10a8142d7d7146cdbe700f",
    "world.json": "03e70c76aebd104fb9f9edc59df304bca90b604f0736c349a4d76f3432f5e70a",
}


def _kinds_by_condition(path):
    """condition id -> set of ground-truth kinds served in it"""
    kinds: dict[str, set[str]] = {}
    for line in (path / "impressions.jsonl").read_text().splitlines():
        row = json.loads(line)
        condition = row["session"].split("|")[1]
        kinds.setdefault(condition, set()).add(row["ground_truth"])
    return kinds


def _run(tmp_path, manifest):
    simulate(ExperimentManifest.from_dict(manifest), tmp_path)
    analyze(tmp_path)
    validate(tmp_path, spurious_levels=[0.0, 0.05])
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
    }


def test_every_output_file_matches_its_golden_digest(tmp_path):
    assert _run(tmp_path, GOLDEN_MANIFEST) == GOLDEN_SHA256


@pytest.mark.parametrize(
    "sim, expected, silent_in_dnt",
    [
        (DNT_SHARED_SIM, DNT_SHARED_SHA256, {"oba", "retargeting"}),
        (DECAY_SIM, DECAY_SHA256, set()),
    ],
    ids=["dnt-shared", "decay"],
)
def test_serving_variants_match_their_golden_digests(tmp_path, sim, expected, silent_in_dnt):
    assert _run(tmp_path, dict(GOLDEN_MANIFEST, sim=sim)) == expected
    # each variant really serves through the branch it pins
    kinds = _kinds_by_condition(tmp_path)
    assert "oba" in kinds["ES"]
    assert not kinds["US+dnt"] & silent_in_dnt
