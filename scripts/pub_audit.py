#!/usr/bin/env python3
"""ci.sh's "no orphan pub item" stage: every pub item has a caller.

    python3 scripts/pub_audit.py

Copies the tree to a temporary directory and marks every `pub` fn,
method, const, static, struct field and enum variant of crates/*/src
`#[deprecated(note = "AUDIT-<n>")]`. Then it runs `cargo check` on the
workspace's lib, bin and example targets and on the `benchmarks/` crate:
rustc warns at every use the compiler resolves to a marked item, naming
the item by its note, and test code is not compiled. An item is
reported when no warning calls it (fns, consts and statics, from a file
other than its own), reads it (fields) or constructs it (variants);
reads and writes, constructions and match arms are told apart by the
text around each warning, a heuristic that errs toward counting a use.

Every report must be on ALLOW below, as `Owner::name` (a type, or the
file stem of a free item, the crate's directory for lib.rs) with the
reason a test needs it; an entry the audit does not report, because its
item gained a caller or is gone, is stale. The script exits 1 on either.
"""
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ALLOW = {
    # acme-agg
    'DriftDetectorConfig::standard': 'the drift-detector preset the 200-seed rate tests gate (ROADMAP item 12(a))',
    'DriftDetector::non_finite_dropped': 'count of dropped NaN/inf observations, the evidence the robustness tests read',
    # acme-check: property-test machinery, its callers are tests by design
    'Gen::bits': 'acme-check draw: its callers are property tests by design',
    'Gen::u64': 'acme-check draw: its callers are property tests by design',
    'Gen::u32': 'acme-check draw: its callers are property tests by design',
    'Gen::usize': 'acme-check draw: its callers are property tests by design',
    'Gen::f64': 'acme-check draw: its callers are property tests by design',
    'Gen::f32': 'acme-check draw: its callers are property tests by design',
    'Gen::vec': 'acme-check draw: its callers are property tests by design',
    'check::cases': 'acme-check property-test entry point: its callers are tests by design',
    'check::replay': 'acme-check re-run of one failing case, the line a failing property prints',
    # acme (core) and acme-data
    'RecustomizeConfig::quick': 'the drift-loop preset the unit tests and false-alarm rate test run',
    'DriftSpec::standard': 'the drift-stream preset the 200-seed rate tests draw from',
    # acme-distsys: the fault-injection vocabulary only tests script
    'FaultAction::Delay': 'fault-injection action: only the fault-matrix and differential tests script it',
    'FaultAction::Duplicate': 'fault-injection action: only the fault-matrix and differential tests script it',
    'FaultRule::from': 'fault-injection rule source: only tests script targeted faults',
    'FaultRule::to': 'fault-injection rule target: only tests script targeted faults',
    'Payload::Ack': 'the ack ledger kind the fenced benchmark declares a row for; only the ledger and fault tests send it',
    # acme-energy
    'EnergyModel::latency': "Eq. 2's per-epoch latency, which the model property test orders by GPU capacity",
    # acme-nn
    'ParamSet::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'ByteWriter::into_vec': 'writer buffer the codec sweep reseals hand-built hostile bodies from',
    # acme-obs: inspection the recording and observability tests read
    'MetricsSnapshot::counter': 'registry inspection the observability and serving tests read',
    'MetricsSnapshot::gauge': 'registry inspection the recording tests read',
    'metrics::reset': 'clears the registry between the recording and observability tests',
    'SpanEvent::field_u64': 'span inspection the recording tests read',
    'Trace::count': 'trace inspection the recording and observability tests read',
    'Trace::spans_named': 'trace inspection the recording tests read',
    'Trace::stable_signature': 'trace inspection the determinism tests compare across reruns',
    'trace::set_detail': 'recording-detail switch the observability tests set per level',
    'trace::set_ring_capacity': 'trace ring bound the recording tests shrink to force overflow',
    # acme-pareto
    'candidate::dominates': 'Pareto-dominance oracle the selection property tests check PFG picks against',
    # acme-serve
    'Response::device': 'request echo the serving tests group answers by',
    'metrics::requests': 'process-wide serving counter the serving test compares with the registry',
    'metrics::batches': 'process-wide serving counter the serving test compares with the registry',
    'metrics::early_exits': 'process-wide serving counter the serving test compares with the registry',
    'ServeModelConfig::tiny': 'the serving model shape the unit and integration tests build on',
    # acme-store
    'ModelStore::hashes': 'blob listing the serve persist tests compare across thread counts',
    # acme-tensor: oracles (safety code) and the stages the oracle tests compose
    'Array::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'Graph::backward_with': 'seeded backward: the attention oracle test drives it with a random upstream gradient',
    'gemm::MC': 'row-block size the GEMM property shapes straddle',
    'gemm::KC': 'depth-block size the GEMM property shapes straddle',
    'Packed::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'gemm::gemm_naive': 'f32 GEMM oracle (safety code): the property tests compare the engine against it',
    'gradcheck::gradcheck': 'finite-difference gradient oracle (safety code) the autograd and attention tests check against',
    'pool::clear': 'empties the buffer pool so the retention and codec tests start from zero',
    'qgemm::quantize_rows': 'int8 stage the GEMM oracle property test composes against gemm_i8_naive',
    'qgemm::quantize_cols': 'int8 stage the GEMM oracle property test composes against gemm_i8_naive',
    'qgemm::dequantize_rows': 'inverse of quantize_rows for the quantization round-trip property',
    'qgemm::dequantize_acc': 'int8 stage the GEMM oracle property test composes against gemm_i8_naive',
    'Packed::scales': 'packed int8 panel scales the GEMM oracle property test dequantizes with',
    'qgemm::gemm_i8_naive': 'int8 GEMM oracle (safety code): the property tests compare the engine against it',
    'qgemm::gemm_i8_prepacked': 'int8 engine entry the GEMM oracle property test drives at 1, 2 and 4 threads',
    # acme-vit
    'TrainConfig::quick': 'the training preset the unit tests run',
    'TrainReport::epoch_losses': 'per-epoch losses the training pins and frozen-feature tests compare bit for bit',
    'VitConfig::tiny': 'the ViT shape the unit and integration tests build on',
    'TeacherTargets::len': 'the teacher-targets test checks the cache covers the transfer set',
    'TeacherTargets::is_empty': 'clippy len_without_is_empty pairs it with len()',
    'TeacherTargets::gather': 'the teacher-targets test compares gathered rows with a per-batch teacher pass bitwise',
    'FrozenFeatures::is_empty': 'clippy len_without_is_empty pairs it with the called len()',
    'Vit::backbone_param_ids': 'the frozen-feature and header tests check that no backbone parameter moves or holds a gradient',
}

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
        if '/src' not in rel_dir + '/':
            continue
        for fname in sorted(n for n in names if n.endswith('.rs')):
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, tree)
            stem = os.path.splitext(fname)[0]
            stem = rel.split('/')[1] if stem == 'lib' else stem
            out, block, owner = [], None, stem
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
                    note('fn', owner if m.group(1) else stem, m.group(3), m.group(1))
                out.append(line)
            open(path, 'w').write('\n'.join(out))
    return items


def uses(tree, target, items):
    """The kinds of use (call, read, write, construct, match) every
    non-test target makes of each marked item. A call from the item's
    own file is `self-call`."""
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
            path = span and os.path.normpath(os.path.join(cwd, span['file_name']))
            if span and not in_use(path, span['line_start']):
                it = items[int(m.group(1))]
                kind = use_kind(span, it['kind'])
                if kind == 'call' and os.path.relpath(path, tree) == it['file']:
                    kind = 'self-call'
                found.setdefault(int(m.group(1)), set()).add(kind)
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
    unused = [it for n, it in enumerate(items) if needed[it['kind']] not in kinds.get(n, ())]
    failures = [f"orphan {it['kind']} {it['item']} at {it['file']}:{it['line']}"
                for it in unused if it['item'] not in ALLOW]
    failures += [f'stale allow-list entry (its item has a caller, or is gone): {entry}'
                 for entry in sorted(set(ALLOW) - {it['item'] for it in unused})]
    print('\n'.join(failures + [
        f'{len(items)} pub items, {len(unused)} without a non-test use, '
        f'{len(ALLOW)} allow-list entries, {len(failures)} failures']))
    sys.exit(1 if failures else 0)


if __name__ == '__main__':
    main()
