"""Correctness checks.  Each takes what the benchmark expected and what the
program returned, and yields one message per violation; an empty list
means the outputs are correct.  They are plain functions so the self-test
can feed them corrupted expectations and see them fail."""

from __future__ import annotations


def record_train(logged: int, stored: int, cached: tuple, cold: tuple) -> list[str]:
    """Every logged value is stored, and the incrementally maintained frame
    equals a cold read by a fresh session.  Frames are ``(columns, records)``."""
    errors = []
    if stored != logged:
        errors.append(f"record_train: {logged} values logged but {stored} rows stored")
    if cached[0] != cold[0]:
        errors.append(f"record_train: cached columns {cached[0]} != cold columns {cold[0]}")
    elif cached[1] != cold[1]:
        diff = sum(1 for a, b in zip(cached[1], cold[1]) if a != b) + abs(len(cached[1]) - len(cold[1]))
        errors.append(f"record_train: cached frame differs from a cold read in {diff} of {len(cold[1])} rows")
    return errors


def hindsight_round(name: str, expected_rows: int, added_rows: int, new_name_rows: int,
                    distinct_keys: int) -> list[str]:
    """A round adds exactly versions x selected epochs rows, all of the new
    statement, with no duplicate ``(tstamp, ctx_id)`` keys."""
    errors = []
    if added_rows != expected_rows:
        errors.append(f"hindsight {name}: expected {expected_rows} new rows, table grew by {added_rows}")
    if new_name_rows != expected_rows:
        errors.append(f"hindsight {name}: expected {expected_rows} rows of {name}, found {new_name_rows}")
    if distinct_keys != new_name_rows:
        errors.append(f"hindsight {name}: {new_name_rows - distinct_keys} duplicate keys")
    return errors


def acked_equals_stored(expected: dict[str, int], stored: dict[str, int]) -> list[str]:
    """Per tenant, the rows the service acknowledged (plus the preload) are
    exactly the rows it stores."""
    return [
        f"tenant {t}: expected {expected[t]} stored rows, found {stored.get(t)}"
        for t in sorted(expected)
        if stored.get(t) != expected[t]
    ]


def tail_trail(seqs: list[int], start: int, stored: int, acked_rows: int) -> list[str]:
    """Delivered ``seq`` ids follow the start cursor contiguously with no
    duplicates, and cover exactly the stored (and acknowledged) rows."""
    errors = []
    if len(set(seqs)) != len(seqs):
        errors.append(f"tail: {len(seqs) - len(set(seqs))} duplicate deliveries")
    if seqs != list(range(start + 1, start + 1 + len(seqs))):
        errors.append("tail: delivered seq trail is not contiguous from the start cursor")
    if len(seqs) != stored:
        errors.append(f"tail: delivered {len(seqs)} rows, {stored} stored after the cursor")
    if stored != acked_rows:
        errors.append(f"tail: {acked_rows} rows acknowledged, {stored} stored after the cursor")
    return errors
