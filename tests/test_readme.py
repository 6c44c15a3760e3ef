from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs():
    """The README's Python quick start runs as printed, so a renamed or
    deleted name fails here rather than for a reader."""
    text = README.read_text().split("## Quick start in Python", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["dist"].p.size == 33
    assert 0.0 < namespace["coverage"] <= 1.0
