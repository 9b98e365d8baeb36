"""README lists that must follow the code they name."""
import ast
import re
from pathlib import Path

from paretopic import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_oracle_list_names_every_oracle():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    defined = [node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    # the bulleted list after "live in `tests/oracles.py`:", up to its blank line
    listing = README.split("`tests/oracles.py`:\n", 1)[1].split("\n\n", 1)[0]
    named = [n for n in re.findall(r"`([^`]+)`", listing) if n.isidentifier()]
    assert sorted(named) == sorted(defined)


def test_readme_config_key_sentence_lists_every_key():
    sentence = re.search(r"Keys are namespaced:(.*?`)\.", README, re.S).group(1)
    assert re.findall(r"`([^`]+)`", sentence) == list(cli.CONFIG_KEYS)
