"""Tests for the profiling memo layer (server/profiles.py)."""

from repro.server import profiles
from repro.server.profiles import (
    combined_database,
    model_database,
    model_right_size,
)


def test_cache_path_shim_is_gone():
    # Right-sizes are memoised in-process only; there is no on-disk
    # profiling store to locate.
    assert not hasattr(profiles, "cache_path")
    assert "cache_path" not in profiles.__all__


def test_right_size_writes_nothing_to_disk(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    model_right_size.cache_clear()
    try:
        size = model_right_size("squeezenet", 32)
    finally:
        model_right_size.cache_clear()
    assert 15 <= size <= 30
    assert list(tmp_path.iterdir()) == []


def test_model_database_covers_trace_and_memoizes():
    db1 = model_database("squeezenet", 32)
    db2 = model_database("squeezenet", 32)
    assert db1 is db2
    assert len(db1) > 5


def test_combined_database_merges_models():
    merged = combined_database(("squeezenet", "shufflenet"), 32)
    assert len(merged) >= len(model_database("squeezenet", 32))
    from repro.models.zoo import get_model
    for desc in get_model("shufflenet").trace(32):
        assert merged.lookup(desc) is not None
