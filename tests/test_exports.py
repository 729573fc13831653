from __future__ import annotations

import frontals


def test_every_exported_name_resolves():
    assert len(set(frontals.__all__)) == len(frontals.__all__)
    assert [name for name in frontals.__all__ if not hasattr(frontals, name)] == []
