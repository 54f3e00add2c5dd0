"""Byte identity of the CLI's output: every family of tools/output_digest.py
against the digests pinned in tests/output_digests.json."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    path = ROOT / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_family_keeps_its_pinned_digest():
    tool = load_tool()
    pinned = json.loads(tool.PINNED.read_text(encoding="utf-8"))
    found = {name: family.total() for name, family in tool.run_families(ROOT).items()}
    assert set(found) == set(pinned["digests"]), "the tool's families changed"
    changed = [name for name, value in pinned["digests"].items() if found[name] != value]
    if changed:
        stamp = tool.stamp(ROOT)
        moved = {k: (v, stamp[k]) for k, v in pinned["stamp"].items() if stamp.get(k) != v}
        raise AssertionError(
            f"output changed in families {', '.join(changed)}; pinned under {pinned['stamp']}"
            + (f", and the stamp moved (pinned, now): {moved}" if moved else "")
            + ". Run `python3 tools/output_digest.py --verbose` here and on the parent"
            " commit to find the pieces that differ; regenerate with --write only"
            " when the change is meant.")
