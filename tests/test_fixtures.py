import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_make_fixtures_regenerates_the_committed_fixtures(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_fixtures", ROOT / "scripts" / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "FIXTURES", tmp_path)
    script.main()
    committed = ROOT / "tests" / "fixtures"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in committed.iterdir())
    for p in tmp_path.iterdir():
        assert p.read_bytes() == (committed / p.name).read_bytes(), p.name
