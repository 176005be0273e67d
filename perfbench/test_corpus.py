"""Checks of the benchmark's input generator.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_corpus.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    sys.path.insert(0, str(path))

import corpus  # noqa: E402
from test_acceptance import synthetic_corpus  # noqa: E402


def test_default_corpus_matches_acceptance_generator(tmp_path):
    ours, theirs = tmp_path / "ours.jsonl", tmp_path / "theirs.jsonl"
    assert corpus.synthetic_corpus(ours) == 10_000
    synthetic_corpus(theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def test_crawl_redelivers_one_item_in_ten(tmp_path):
    path = tmp_path / "crawl.jsonl"
    lines, unique = corpus.crawl_corpus(path, n_lines=1_000, n_accounts=100, seed=7)
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    ids = [row["id"] for row in rows]
    assert (lines, unique) == (1_000, 900)
    assert len(rows) == lines and len(set(ids)) == unique
    first = {}
    for row in rows:  # a re-delivery repeats the whole item
        assert first.setdefault(row["id"], row) == row
    again = tmp_path / "again.jsonl"
    corpus.crawl_corpus(again, n_lines=1_000, n_accounts=100, seed=7)
    assert again.read_bytes() == path.read_bytes()


def test_lexicons_are_disjoint_and_seeded(tmp_path):
    paths = [tmp_path / name for name in ("pos", "neg", "pos2", "neg2")]
    corpus.lexicons(paths[0], paths[1], seed=3)
    corpus.lexicons(paths[2], paths[3], seed=3)
    pos, neg = ({w for w in p.read_text().split("\n")[1:] if w} for p in paths[:2])
    assert pos and neg and not pos & neg
    assert paths[0].read_bytes() == paths[2].read_bytes()
