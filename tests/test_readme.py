import logging
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs(caplog):
    """The README's Python quick start runs as printed, so a renamed or
    deleted name fails here rather than for a reader; its OAM analyses
    are resolved, so the <L_z> oracle logs no warning."""
    text = README.read_text().split("## Quick start in Python", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with caplog.at_level(logging.WARNING, logger="sodiff"):
        exec(compile(code, str(README), "exec"), namespace)
    assert [r for r in caplog.records if r.name == "sodiff.oam"] == []
    assert namespace["dist"].p.size == 33
    assert namespace["dist"].residual < 1e-6
    assert 0.0 < namespace["coverage"] <= 1.0
