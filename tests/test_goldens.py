"""The goldens are current: scripts/regen_goldens.py, run into a temporary
directory, writes every file of tests/golden byte for byte, and no other."""

import importlib.util

from conftest import GOLDEN, ROOT


def test_the_goldens_regenerate_without_a_diff(tmp_path):
    spec = importlib.util.spec_from_file_location("regen_goldens", ROOT / "scripts" / "regen_goldens.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    regen.main(tmp_path)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
