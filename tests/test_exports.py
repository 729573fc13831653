from __future__ import annotations

from pathlib import Path

import frontals


def test_every_exported_name_resolves():
    assert len(set(frontals.__all__)) == len(frontals.__all__)
    assert [name for name in frontals.__all__ if not hasattr(frontals, name)] == []


def test_readme_quick_start_prints_what_its_comments_say(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in block.splitlines() if "#" in line]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 6
