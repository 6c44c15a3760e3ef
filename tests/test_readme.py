import logging
import re
from pathlib import Path

from sodiff import cli

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


def grammar_sections() -> dict:
    """{section: (keys, modes)} of the README's config-grammar block.  A
    line opening with [name] starts a section; a line that ends in | goes
    on with the next.  Within a section the entries are separated by ;
    and , and are either key = value alternatives (value alternatives
    apart by |) or bare keys (key alternatives apart by |, each maybe
    followed by a parenthesis); modes are the values of mode."""
    text = README.read_text().split("### Config grammar", 1)[1]
    block = re.sub(r"\|\s*\n\s*", "| ", text.split("```\n", 2)[1])
    sections, name = {}, None
    for line in block.splitlines():
        head = re.match(r"\[(\w+)\](.*)", line)
        if head:
            name, line = head.groups()
            sections[name] = (set(), [])
        keys, modes = sections[name]
        for entry in re.split(r"[;,]", line):
            if "=" in entry:
                keys.update(re.findall(r"(\w+)\s*=", entry))
                key, value = entry.split("=", 1)
                if key.strip() == "mode":
                    modes += (v.strip() for v in value.split("|"))
            else:
                keys.update(alt.split()[0] for alt in entry.split("|")
                            if alt.strip())
    return sections


def test_config_grammar_lists_schema_keys():
    """The README's config grammar names exactly the keys the parser
    accepts in each section, and exactly its analysis modes."""
    sections = grammar_sections()
    assert {name: keys for name, (keys, _) in sections.items()} == cli._SCHEMA
    assert sorted(sections["analysis"][1]) == sorted(cli._ANALYSIS_DISPATCH)
