from importlib import resources

from dendrokit.fixtures import BUNDLED_FILES, build


def test_bundled_files_match_their_builders(tmp_path, monkeypatch):
    """Every bundled fixture file is byte-equal to what `fixtures/build.py`
    writes today, so the files cannot drift from the builders."""
    monkeypatch.setattr(build, "HERE", tmp_path)
    build.main()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BUNDLED_FILES)
    bundled = resources.files("dendrokit.fixtures")
    for name in BUNDLED_FILES:
        assert (tmp_path / name).read_bytes() == bundled.joinpath(name).read_bytes(), name
