"""The ``REPRO_*`` registry: only keys something reads, and the README
table is its generated output."""

import os

from repro.envkeys import format_env_table, known_env_keys

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")


def test_known_keys_are_the_read_ones():
    assert set(known_env_keys()) == {
        "REPRO_BENCH_HORIZON",
        "REPRO_BENCH_SCALE",
        "REPRO_BENCH_SEED",
        "REPRO_OBS",
        "REPRO_POLICIES",
        "REPRO_INVARIANTS",
    }


def test_readme_table_is_generated():
    with open(README, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| Variable "))
    end = next(
        (i for i in range(start, len(lines)) if not lines[i].startswith("|")),
        len(lines),
    )
    assert "\n".join(lines[start:end]) == format_env_table(), (
        "README env table is stale; regenerate it with `python -m repro.envkeys`"
    )
