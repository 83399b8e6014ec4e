#!/usr/bin/env python3
"""The compiler audit behind ci.sh's "no orphan pub item" stage.

    python3 scripts/pub_audit.py

Copies the tree to a temporary directory and marks every `pub` fn,
method, const, static, struct field and enum variant of crates/*/src
(crates/bench aside) `#[deprecated(note = "AUDIT-<n>")]`. Then it runs
`cargo check` on the workspace's lib, bin and example targets and on the
`benchmarks/` crate: rustc warns at every use the compiler resolves to a
marked item, naming the item by its note, and test code is not compiled.
An item is reported when no warning calls it (fns), reads it (fields)
or constructs it (variants); reads and writes, constructions and match
arms are told apart by the text around each warning, a heuristic that
errs toward counting a use. Every report must be on ci.sh's
`orphan_allow` (by name, or `crate::name`) or `audit_keep`
(`Owner::name`); the script exits 1 otherwise.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FN = re.compile(r'^(\s*)pub (?:const |unsafe )*(fn|const|static) +([A-Za-z_]\w*)')
BLOCK = re.compile(r'^(\s*)pub(?:\([a-z]+\))? (struct|enum) +([A-Za-z_]\w*)[^;(]*\{\s*$')
IMPL = re.compile(r'^\s*impl(?:<.*?>)? +(?:[\w:<>, ]+ +for +)?([A-Za-z_]\w*)')
FIELD = re.compile(r'^(\s*)pub ([a-z_]\w*) *:')
VARIANT = re.compile(r'^(\s*)([A-Z]\w*)\s*(\(|\{|,|=|$)')


def mark(tree):
    """Marks every pub item above each file's first #[cfg(test)]."""
    items = []
    for dirpath, _, names in sorted(os.walk(os.path.join(tree, 'crates'))):
        rel_dir = os.path.relpath(dirpath, tree)
        if rel_dir.startswith('crates/bench') or '/src' not in rel_dir + '/':
            continue
        for fname in sorted(n for n in names if n.endswith('.rs')):
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, tree)
            out, block, owner = [], None, os.path.splitext(fname)[0]
            lines = open(path).read().split('\n')
            for i, line in enumerate(lines):
                if line.startswith('#[cfg(test)]'):
                    out.extend(lines[i:])
                    break

                def note(kind, own, name, indent):
                    out.append(f'{indent}#[deprecated(note = "AUDIT-{len(items)}")]')
                    items.append(dict(file=rel, line=i + 1, kind=kind, item=f'{own}::{name}'))

                if block:
                    indent = block[1]
                    m = (FIELD if block[0] == 'struct' else VARIANT).match(line)
                    if line.startswith(indent + '}'):
                        block = None
                    elif m and len(m.group(1)) == len(indent) + 4:
                        note('field' if block[0] == 'struct' else 'variant', block[2], m.group(2), m.group(1))
                    out.append(line)
                    continue
                m = BLOCK.match(line)
                if m:
                    block = (m.group(2), m.group(1), m.group(3))
                m = IMPL.match(line)
                if m and not line.lstrip().startswith('//'):
                    owner = m.group(1)
                m = FN.match(line)
                if m:
                    own = owner if m.group(1) else os.path.splitext(fname)[0]
                    note('fn', own, m.group(3), m.group(1))
                out.append(line)
            open(path, 'w').write('\n'.join(out))
    return items


def uses(tree, target, items):
    """The kinds of use (call, read, write, construct, match) every
    non-test target makes of each marked item."""
    found = {}
    for cwd, args in [
        (tree, ['--workspace', '--lib', '--bins', '--examples']),
        (os.path.join(tree, 'benchmarks'), ['--offline', '--locked', '--bins']),
    ]:
        run = subprocess.run(
            ['cargo', 'check', '--message-format=json', *args],
            cwd=cwd, env=dict(os.environ, CARGO_TARGET_DIR=target),
            capture_output=True, text=True,
        )
        if run.returncode != 0:
            sys.exit(f'cargo check failed in {cwd}:\n{run.stderr[-4000:]}')
        for raw in run.stdout.splitlines():
            msg = json.loads(raw)
            if msg.get('reason') != 'compiler-message':
                continue
            m = re.search(r'AUDIT-(\d+)', msg['message']['message'])
            span = m and next(s for s in msg['message']['spans'] if s['is_primary'])
            if span and not in_use(os.path.join(cwd, span['file_name']), span['line_start']):
                n = int(m.group(1))
                found.setdefault(n, set()).add(use_kind(span, items[n]['kind']))
    return found


def in_use(path, line):
    """Whether 1-based `line` of `path` lies in a `use` declaration: a
    re-export names an item without using it."""
    lines = open(path).read().split('\n')[:line]
    for i in range(len(lines) - 1, -1, -1):
        if re.match(r'\s*(pub(\(\w+\))? )?use ', lines[i]):
            return True
        if i < len(lines) - 1 and re.search(r'[;{}]\s*$', lines[i]):
            return False
    return False


def use_kind(span, kind):
    """How one warning's span uses an item of `kind`."""
    if kind == 'fn':
        return 'call'
    line = span['text'][0]['text']
    start, end = span['column_start'] - 1, span['column_end'] - 1
    after = line[end:] if span['line_start'] == span['line_end'] else ''
    if kind == 'variant':
        matching = '=>' in after or re.match(r'\s*\|', line) or re.search(
            r'\bmatches!|\bif let\b|\bwhile let\b|\blet\b.*\belse\b', line)
        return 'match' if matching else 'construct'
    if re.match(r'\s*[-+*/|&^]?=(?!=)', after):
        return 'write'
    if '.' in line[start:end] or span['line_start'] != span['line_end']:
        return 'read'
    if re.search(r'\blet\b.*\}\s*=', line):
        return 'read'  # a destructuring pattern
    return 'write' if re.match(r'\s*(:(?!:)|[,}])', after) else 'read'


def allowed():
    """Names and Owner::name entries of ci.sh's two allow-lists."""
    ci = open(os.path.join(ROOT, 'scripts', 'ci.sh')).read()
    entries = set()
    for var in ('orphan_allow', 'audit_keep'):
        body = re.search(var + r"='\n(.*?)'\n", ci, re.S).group(1)
        entries |= {line.split()[0] for line in body.splitlines() if line.strip()}
    return entries


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, 'tree')
        files = subprocess.run(['git', 'ls-files', '-co', '--exclude-standard', '-z'],
                               cwd=ROOT, capture_output=True, check=True).stdout.split(b'\0')
        for f in filter(None, files):
            src, dst = os.path.join(ROOT, f.decode()), os.path.join(tree, f.decode())
            if os.path.isfile(src):
                os.makedirs(os.path.dirname(dst), exist_ok=True)
                with open(src, 'rb') as a, open(dst, 'wb') as b:
                    b.write(a.read())
        items = mark(tree)
        kinds = uses(tree, os.path.join(tmp, 'target'), items)
    needed = {'fn': 'call', 'field': 'read', 'variant': 'construct'}
    allow, bad = allowed(), 0
    for n, it in enumerate(items):
        if needed[it['kind']] in kinds.get(n, ()):
            continue
        name = it['item'].split('::')[-1]
        crate = it['file'].split('/')[1]
        ok = {it['item'], name, f'{crate}::{name}'} & allow
        bad += not ok
        print(f"{'allowed' if ok else 'ORPHAN '} {it['kind']:8} {it['item']:40} {it['file']}:{it['line']}")
    print(f'{len(items)} pub items, {bad} without a non-test use outside the allow-lists')
    sys.exit(1 if bad else 0)


if __name__ == '__main__':
    main()
