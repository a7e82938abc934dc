"""Spec-line corpus: the params or the SpecError each tricky line gives.

Each line follows a fixed three-line header, so it is line 4 of its spec. A
parsed line pins its invocations, generated inputs and outputs; a rejected
line pins the whole SpecError message. The corpus covers the quote rule of the
spec language: a quoted value runs to the next '"', with no escapes, and '#',
',' and '=' inside it are literal.
"""

import pytest

from motifbench.errors import SpecError
from motifbench.workload import parse_spec

HEAD = (
    'workload "lines"\n'
    "input t = generate.text(bytes=64, seed=1)\n"
    "input tb = generate.table(orders=4, items=8, which=order, seed=1)\n"
)

CASES = [
    ('node g = set.grep(t, pattern="a#b")',
     ([('g', ('t',), (('pattern', 'a#b'),))], [], [])),
    ('node g = set.grep(t, pattern="a,b")',
     ([('g', ('t',), (('pattern', 'a,b'),))], [], [])),
    ('node g = set.grep(t, pattern="a=b")',
     ([('g', ('t',), (('pattern', 'a=b'),))], [], [])),
    ('node g = set.grep(t, pattern="#,=")',
     ([('g', ('t',), (('pattern', '#,='),))], [], [])),
    ('node g = set.grep(t, pattern="a,b # not a comment")',
     ([('g', ('t',), (('pattern', 'a,b # not a comment'),))], [], [])),
    ('node g = set.grep(t, pattern="(x)")',
     ([('g', ('t',), (('pattern', '(x)'),))], [], [])),
    ('node f = set.filter(tb, column=x, cmp=eq, value="")',
     ([('f', ('tb',), (('cmp', 'eq'), ('column', 'x'), ('value', '')))], [], [])),
    ('node g = set.grep(t,\tpattern = "a\tb" )',
     ([('g', ('t',), (('pattern', 'a\tb'),))], [], [])),
    ('node g = set.grep(t, pattern="x")  # comment "with a quote',
     ([('g', ('t',), (('pattern', 'x'),))], [], [])),
    ('node g = set.grep(t, pattern="x")#"c"',
     ([('g', ('t',), (('pattern', 'x'),))], [], [])),
    ('node g = set.grep(t, pattern="a,b" # c")',
     '<spec>:4: syntax error: \'node g = set.grep(t, pattern="a,b"\''),
    ('node g = set.grep(t, pattern="x")\r',
     ([('g', ('t',), (('pattern', 'x'),))], [], [])),
    ('node g = set.grep(t,, pattern="x")',
     '<spec>:4: empty argument in (t,, pattern="x")'),
    ('node g = set.grep(t, pattern="x",)',
     '<spec>:4: empty argument in (t, pattern="x",)'),
    ('node g = set.grep(t, pattern="x", )',
     '<spec>:4: empty argument in (t, pattern="x", )'),
    ('node g = set.grep(,)',
     '<spec>:4: empty argument in (,)'),
    ('node g = set.grep( , )',
     '<spec>:4: empty argument in ( , )'),
    ('node g = set.grep(,t)',
     '<spec>:4: empty argument in (,t)'),
    ('node g = set.grep()',
     "<spec>:4: set.grep takes 1 operand(s), got 0; <spec>:4: set.grep: missing required parameter 'pattern'"),
    ('node g = set.grep(t, pattern="a)',
     '<spec>:4: unterminated quoted value: \'node g = set.grep(t, pattern="a)\''),
    ('node g = set.grep(t, pattern="a#b)',
     '<spec>:4: unterminated quoted value: \'node g = set.grep(t, pattern="a#b)\''),
    ('node g = set.grep(t, pattern="a\\"b")',
     '<spec>:4: unterminated quoted value: \'node g = set.grep(t, pattern="a\\\\"b")\''),
    ('node g = set.grep(t, "pattern"="x")',
     '<spec>:4: bad parameter name \'"pattern"\''),
    ('node g = set.grep(t, pat"tern=x"="y")',
     '<spec>:4: bad parameter name \'pat"tern=x"\''),
    ('node g = set.grep(t, pattern=x=y)',
     ([('g', ('t',), (('pattern', 'x=y'),))], [], [])),
    ('node g = set.grep(t, pattern="a"b)',
     ([('g', ('t',), (('pattern', '"a"b'),))], [], [])),
    ('node g = set.grep(t, pattern="a""b")',
     ([('g', ('t',), (('pattern', 'a""b'),))], [], [])),
    ('node f = set.filter(tb, column=x, cmp=eq, value=)',
     ([('f', ('tb',), (('cmp', 'eq'), ('column', 'x'), ('value', '')))], [], [])),
    ('node g = set.grep(t, =x)',
     "<spec>:4: bad parameter name ''"),
    ('node g = set.grep("t", pattern="x")',
     '<spec>:4: bad operand id \'"t"\''),
    ('node g = set.grep(pattern="x", t)',
     "<spec>:4: operand 't' appears after keyword parameters"),
    ('node g = set.grep(t, pattern="x", pattern="y")',
     "<spec>:4: duplicate parameter 'pattern'"),
    ('node g = set.grep(t, pattern="x"',
     '<spec>:4: syntax error: \'node g = set.grep(t, pattern="x"\''),
    ('node f = set.filter(tb, column="qty", cmp=ge, value="1,000")',
     ([('f', ('tb',), (('cmp', 'ge'), ('column', 'qty'), ('value', '1,000')))], [], [])),
    ('node f = set.filter(tb, column=qty, cmp="ge", value=1e3)',
     ([('f', ('tb',), (('cmp', 'ge'), ('column', 'qty'), ('value', '1e3')))], [], [])),
    ('input x = generate.text(bytes=64, corpus="c,#=.txt", seed=7)',
     ([], [('x', None, (('bytes', 64), ('corpus', 'c,#=.txt')))], [])),
    ('input x = generate.matrix(rows=2, cols=2, seed=1,, )',
     '<spec>:4: empty argument in (rows=2, cols=2, seed=1,, )'),
    ('input x = generate.matrix(rows=2, t, seed=1)',
     "<spec>:4: expected key=value, got 't'"),
    ('input x = generate.matrix(rows="2", cols=2, seed=1)',
     ([], [('x', None, (('cols', 2), ('dist', 'uniform'), ('hi', 1.0), ('lo', 0.0), ('rows', 2)))], [])),
    ('input f : text @ "in#1,a=b.text"',
     ([], [('f', 'in#1,a=b.text', None)], [])),
    ('output t @ "out/t#1,a=b.text"  # trailing',
     ([], [], [('t', 'out/t#1,a=b.text')])),
    ('"node g = set.grep(t, pattern="x")"',
     '<spec>:4: syntax error: \'"node g = set.grep(t, pattern="x")"\''),
    ('# node g = set.grep(t, pattern="x"',
     ([], [], [])),
    ('   # only a comment',
     ([], [], [])),
    # A value is text until its parameter's schema converts it, so a str
    # parameter keeps its spelling and an int parameter rejects a float's.
    ('node g = set.grep(t, pattern=1_000)',
     ([('g', ('t',), (('pattern', '1_000'),))], [], [])),
    ('node g = set.grep(t, pattern=007)',
     ([('g', ('t',), (('pattern', '007'),))], [], [])),
    ('node g = set.grep(t, pattern=1e3)',
     ([('g', ('t',), (('pattern', '1e3'),))], [], [])),
    ('node g = set.grep(t, pattern=Infinity)',
     ([('g', ('t',), (('pattern', 'Infinity'),))], [], [])),
    ('input x = generate.matrix(rows=1e3, cols=2, seed=1)',
     "<spec>:4: generate.matrix: parameter 'rows' must be an integer, got '1e3'"),
    ('node g = set.grep(t, pattern="")',
     "<spec>:4: set.grep: parameter 'pattern' must be non-empty"),
    ('input x = generate.foo()',
     "<spec>:4: unknown generator kind 'foo'"),
    ('workload "again"',
     "<spec>:4: duplicate workload line"),
    ('output t @ ""',
     "<spec>:4: empty output path"),
]


def _parsed(line):
    try:
        spec = parse_spec(HEAD + line + "\n")
    except SpecError as exc:
        return str(exc)
    return (
        [(inv.result_id, inv.operands, inv.params) for inv in spec.invocations],
        [(d.dataset_id, d.path, d.genspec and d.genspec.params) for d in spec.inputs[2:]],
        [(o.dataset_id, o.path) for o in spec.outputs],
    )


@pytest.mark.parametrize("line, expected", CASES, ids=[f"line{i}" for i in range(len(CASES))])
def test_spec_line_corpus(line, expected):
    assert _parsed(line) == expected


def test_empty_workload_name_is_refused_on_its_line():
    with pytest.raises(SpecError) as err:
        parse_spec('# no name\nworkload ""\n' + HEAD)
    assert str(err.value) == "<spec>:2: workload name must be non-empty"
