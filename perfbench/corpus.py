"""Seeded input generator for the benchmark workloads.

``synthetic_corpus`` is the election-chatter generator of the acceptance
suite (criterion 10): at its default arguments it writes the same bytes,
which ``perfbench/test_corpus.py`` asserts. The crawl variant re-delivers
about one item in ten under its original id, as an at-least-once source
would, and comes with a collector config. Lexicons are drawn from the
generator's own vocabulary so sentiment scoring finds hits.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

COMMON = ["rt", "ge2017", "vote", "election", "uk", "amp"]
MID = ["labour", "tory", "brexit", "corbyn", "may", "manifesto", "poll"]
RARE = [f"topic{i}" for i in range(200)]


def corpus_lines(n_records=10_000, n_accounts=1_400, seed=20170421):
    """Yield the JSON lines of the synthetic corpus, newline included."""
    rng = random.Random(seed)
    accounts = [f"acct{i:04d}" for i in range(n_accounts)]

    def zipf_account():
        # mostly uniform participation with a heavy-tailed hub component
        if rng.random() < 0.35:
            return accounts[min(int(rng.paretovariate(1.2)) - 1, n_accounts - 1)]
        return accounts[rng.randrange(n_accounts)]

    for i in range(n_records):
        author = zipf_account()
        words = rng.choices(COMMON, k=3) + rng.choices(MID, k=2)
        if rng.random() < 0.4:
            words.append(rng.choice(RARE))
        mentions, reply = [], None
        roll = rng.random()
        if roll < 0.6:
            mentions = [zipf_account() for _ in range(rng.randint(1, 2))]
        elif roll < 0.85:
            reply = zipf_account()
        follows = [zipf_account()] if rng.random() < 0.15 else []
        minute = rng.randrange(200) if i % 50 else 13  # periodic burst minute
        row = {
            "id": f"r{i:06d}",
            "author": author,
            "text": " ".join(words) + " #GE2017",
            "hashtags": ["GE2017"] if rng.random() < 0.9 else ["brexit"],
            "in_reply_to": reply,
            "mentions": mentions,
            "follows": follows,
            "timestamp": f"2017-04-21T{10 + minute // 60}:{minute % 60:02d}:{i % 60:02d}Z",
        }
        yield json.dumps(row) + "\n"


def synthetic_corpus(path, n_records=10_000, n_accounts=1_400, seed=20170421):
    """Write the corpus to ``path``; returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in corpus_lines(n_records, n_accounts, seed):
            fh.write(line)
            count += 1
    return count


def crawl_corpus(path, n_lines=10_000, n_accounts=1_000, seed=20170421, redeliver_every=10):
    """Write a crawl of ``n_lines`` items where every ``redeliver_every``-th
    item repeats an earlier one (same id, same payload).

    Returns ``(lines, unique)``.
    """
    unique = n_lines - n_lines // redeliver_every
    rng = random.Random(f"{seed}:redeliver")
    delivered: list[str] = []
    with open(path, "w", encoding="utf-8") as fh:
        for line in corpus_lines(unique, n_accounts, seed):
            delivered.append(line)
            fh.write(line)
            if len(delivered) % (redeliver_every - 1) == 0:
                fh.write(rng.choice(delivered))
    return unique + unique // (redeliver_every - 1), unique


def lexicons(pos_path, neg_path, seed):
    """Disjoint positive/negative word lists drawn from the corpus vocabulary."""
    rng = random.Random(f"{seed}:lexicon")
    words = MID + rng.sample(RARE, 60)
    rng.shuffle(words)
    half = len(words) // 2
    for path, chosen in ((pos_path, words[:half]), (neg_path, words[half:])):
        Path(path).write_text(
            "; generated opinion lexicon\n" + "".join(w + "\n" for w in sorted(chosen)),
            encoding="utf-8",
        )


def collector_config(path, crawl_path, sink_path, alerts_path, pos_path, neg_path):
    config = {
        "sources": [{"id": "crawl", "kind": "file", "location": str(crawl_path)}],
        "sink": {"path": str(sink_path), "format": "json"},
        "alerts": {"path": str(alerts_path)},
        "deviation": {"metric": "volume", "window": 20, "z_threshold": 3.0,
                      "sigma_floor": 1e-6, "bucket_seconds": 60},
        "lexicon": {"positive": str(pos_path), "negative": str(neg_path)},
    }
    Path(path).write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
