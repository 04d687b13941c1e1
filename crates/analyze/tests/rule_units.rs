//! Per-rule unit tests: each rule fires on a minimal trigger, stays
//! quiet on non-triggers and allowlisted paths, and respects every form
//! of the `pcr-lint: allow(...)` escape hatch.

use pcr_analyze::rules::analyze_source;

const HOT: &str = "crates/jpeg/src/huffman.rs";
const PARSE: &str = "crates/core/src/wire.rs";
const LIB: &str = "crates/storage/src/store.rs";

fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
    let mut v: Vec<_> = analyze_source(path, src).findings.iter().map(|f| f.rule).collect();
    v.sort_unstable();
    v.dedup();
    v
}

// clock-discipline --------------------------------------------------------

#[test]
fn clock_fires_outside_allowlist() {
    let src = "fn f() -> f64 { std::time::Instant::now().elapsed().as_secs_f64() }";
    assert_eq!(rules_fired(LIB, src), ["clock-discipline"]);
    assert_eq!(rules_fired("crates/loader/src/loader.rs", "let t = SystemTime::now();"),
               ["clock-discipline"]);
}

#[test]
fn clock_quiet_on_allowlisted_paths() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert!(rules_fired("crates/loader/src/parallel.rs", src).is_empty());
    assert!(rules_fired("crates/loader/src/timing.rs", src).is_empty());
    assert!(rules_fired("crates/cli/src/main.rs", src).is_empty());
    assert!(rules_fired("vendor/parking_lot/src/lib.rs", src).is_empty());
}

#[test]
fn e2e_bench_may_time_and_print_but_loader_may_not() {
    let src = "fn f() { let t = std::time::Instant::now(); eprintln!(\"{t:?}\"); }";
    assert!(rules_fired("bench_e2e/src/x.rs", src).is_empty());
    assert_eq!(rules_fired("crates/loader/src/loader.rs", src),
               ["clock-discipline", "no-debug-output"]);
}

#[test]
fn instant_ident_alone_is_not_a_clock_read() {
    // Mentioning the type (fn signatures, struct fields) is fine; only
    // `Instant::now` reads the clock.
    assert!(rules_fired(LIB, "fn f(t: Instant) -> Instant { t }").is_empty());
}

// no-panic-in-hot-path ----------------------------------------------------

#[test]
fn panic_family_fires_in_hot_files() {
    assert_eq!(rules_fired(HOT, "fn f(x: Option<u8>) { x.unwrap(); }"),
               ["no-panic-in-hot-path"]);
    assert_eq!(rules_fired(HOT, "fn f(x: Option<u8>) { x.expect(\"boom\"); }"),
               ["no-panic-in-hot-path"]);
    assert_eq!(rules_fired(HOT, "fn f() { panic!(\"no\"); }"), ["no-panic-in-hot-path"]);
    assert_eq!(rules_fired(HOT, "fn f() { unreachable!(); }"), ["no-panic-in-hot-path"]);
    assert_eq!(rules_fired(HOT, "fn f(v: &[u8], i: usize) -> u8 { v[i] }"),
               ["no-panic-in-hot-path"]);
}

#[test]
fn panic_rules_quiet_outside_hot_files() {
    assert!(rules_fired(LIB, "fn f(x: Option<u8>) { x.unwrap(); }").is_empty());
    assert!(rules_fired(LIB, "fn f(v: &[u8]) -> u8 { v[0] }").is_empty());
}

#[test]
fn indexing_heuristics() {
    // Call result and tuple-field indexing are still indexing.
    assert_eq!(rules_fired(HOT, "fn f() -> u8 { make()[0] }"), ["no-panic-in-hot-path"]);
    assert_eq!(rules_fired(HOT, "fn f(&self) -> u8 { self.0[1] }"), ["no-panic-in-hot-path"]);
    // Patterns, array types, and array literals are not indexing.
    assert!(rules_fired(HOT, "fn f() { let [a, b] = pair; }").is_empty());
    assert!(rules_fired(HOT, "fn f(x: [f64; 8]) -> [u8; 4] { [0; 4] }").is_empty());
    assert!(rules_fired(HOT, "fn f(v: &[u8]) { for x in [1, 2] {} }").is_empty());
}

#[test]
fn unwrap_or_and_named_unwrap_do_not_fire() {
    assert!(rules_fired(HOT, "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }").is_empty());
    assert!(rules_fired(HOT, "fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }").is_empty());
    // A local named `unwrap` without `.` before it is not a method call.
    assert!(rules_fired(HOT, "fn f() { let unwrap = 3; g(unwrap); }").is_empty());
}

// safety-comment-on-unsafe ------------------------------------------------

#[test]
fn unsafe_requires_safety_comment() {
    assert_eq!(rules_fired(LIB, "fn f(p: *const u8) -> u8 { unsafe { *p } }"),
               ["safety-comment-on-unsafe"]);
    let ok = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid\n    unsafe { *p }\n}";
    assert!(rules_fired(LIB, ok).is_empty());
}

#[test]
fn safety_comment_must_be_close() {
    // Four lines of separation is too far.
    let src = "// SAFETY: stale\n//\n//\n//\nfn f(p: *const u8) -> u8 { unsafe { *p } }";
    assert_eq!(rules_fired(LIB, src), ["safety-comment-on-unsafe"]);
}

// bounded-alloc -----------------------------------------------------------

#[test]
fn alloc_sized_by_runtime_value_fires() {
    assert_eq!(rules_fired(PARSE, "fn f(n: usize) { let v = Vec::with_capacity(n); }"),
               ["bounded-alloc"]);
    assert_eq!(rules_fired(PARSE, "fn f(n: usize) { let v = vec![0u8; n]; }"),
               ["bounded-alloc"]);
    assert_eq!(rules_fired(PARSE, "fn f(n: usize, v: &mut Vec<u8>) { v.reserve(n); }"),
               ["bounded-alloc"]);
}

#[test]
fn alloc_sized_by_constant_is_fine() {
    assert!(rules_fired(PARSE, "fn f() { let v = Vec::with_capacity(MAX_GROUPS); }").is_empty());
    assert!(rules_fired(PARSE, "fn f() { let v = Vec::with_capacity(64); }").is_empty());
    assert!(rules_fired(PARSE, "fn f() { let v = vec![0u8; 1024]; }").is_empty());
    // `vec![expr_with_runtime; CONST]` allocates by the const count.
    assert!(rules_fired(PARSE, "fn f(x: u8) { let v = vec![x; 16]; }").is_empty());
}

#[test]
fn alloc_rule_scoped_to_parse_files() {
    assert!(rules_fired(LIB, "fn f(n: usize) { let v = Vec::with_capacity(n); }").is_empty());
}

// no-truncating-cast ------------------------------------------------------

#[test]
fn narrowing_casts_fire_in_parse_files() {
    assert_eq!(rules_fired(PARSE, "fn f(x: u64) -> u32 { x as u32 }"), ["no-truncating-cast"]);
    assert_eq!(rules_fired(PARSE, "fn f(v: &[u8]) -> u16 { v.len() as u16 }"),
               ["no-truncating-cast"]);
}

#[test]
fn widening_casts_and_other_files_are_fine() {
    assert!(rules_fired(PARSE, "fn f(x: u8) -> u64 { x as u64 }").is_empty());
    assert!(rules_fired(PARSE, "fn f(x: u32) -> usize { x as usize }").is_empty());
    assert!(rules_fired(LIB, "fn f(x: u64) -> u32 { x as u32 }").is_empty());
}

// no-debug-output ---------------------------------------------------------

#[test]
fn debug_output_fires_in_library_crates() {
    assert_eq!(rules_fired(LIB, "fn f() { println!(\"x\"); }"), ["no-debug-output"]);
    assert_eq!(rules_fired(LIB, "fn f(x: u8) { dbg!(x); }"), ["no-debug-output"]);
    assert_eq!(rules_fired(LIB, "fn f() { eprintln!(\"warn\"); }"), ["no-debug-output"]);
}

#[test]
fn debug_output_allowed_in_binaries_and_tools() {
    let src = "fn main() { println!(\"hello\"); }";
    assert!(rules_fired("crates/cli/src/main.rs", src).is_empty());
    assert!(rules_fired("crates/bench/src/main.rs", src).is_empty());
}

// test-code exemption -----------------------------------------------------

#[test]
fn cfg_test_items_are_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}";
    assert!(rules_fired(HOT, src).is_empty());
}

#[test]
fn cfg_not_test_is_production_code() {
    let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) { x.unwrap(); }";
    assert_eq!(rules_fired(HOT, src), ["no-panic-in-hot-path"]);
}

#[test]
fn tests_dirs_are_wholesale_exempt() {
    let src = "fn f(x: Option<u8>) { x.unwrap(); std::time::Instant::now(); println!(\"t\"); }";
    assert!(rules_fired("crates/jpeg/tests/decode.rs", src).is_empty());
    assert!(rules_fired("crates/core/benches/wire.rs", src).is_empty());
}

// allow escape hatch ------------------------------------------------------

#[test]
fn trailing_allow_suppresses_and_is_counted() {
    let src = "fn f(v: &[u8]) -> u8 { v[0] } // pcr-lint: allow(no-panic-in-hot-path) — len > 0";
    let r = analyze_source(HOT, src);
    assert!(r.findings.is_empty());
    assert_eq!(r.suppressed, 1);
}

#[test]
fn standalone_allow_covers_next_code_line() {
    let src = "// pcr-lint: allow(no-panic-in-hot-path) — bound checked\nfn f(v: &[u8]) -> u8 { v[0] }";
    let r = analyze_source(HOT, src);
    assert!(r.findings.is_empty());
    assert_eq!(r.suppressed, 1);
}

#[test]
fn standalone_allow_skips_continuation_comment_lines() {
    let src = "// pcr-lint: allow(no-panic-in-hot-path) — a justification that\n\
               // continues on a second comment line before the code\n\
               fn f(v: &[u8]) -> u8 { v[0] }";
    let r = analyze_source(HOT, src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 1);
}

#[test]
fn allow_does_not_leak_to_other_lines_or_rules() {
    let src = "fn f(v: &[u8]) -> u8 { v[0] } // pcr-lint: allow(no-panic-in-hot-path)\n\
               fn g(v: &[u8]) -> u8 { v[1] }";
    let r = analyze_source(HOT, src);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].line, 2);
    // Allowing one rule does not silence a different rule on the line.
    let src2 = "fn f(x: Option<u8>) { std::time::Instant::now(); x.unwrap(); } \
                // pcr-lint: allow(clock-discipline)";
    assert_eq!(rules_fired(HOT, src2), ["no-panic-in-hot-path"]);
}

#[test]
fn allow_list_form_covers_multiple_rules() {
    let src = "fn f(x: u64, v: &[u8]) -> u8 { v[x as u32 as usize] } \
               // pcr-lint: allow(no-panic-in-hot-path, no-truncating-cast)";
    let r = analyze_source(PARSE, src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn unknown_rule_name_does_not_suppress() {
    let src = "fn f(v: &[u8]) -> u8 { v[0] } // pcr-lint: allow(no-such-rule)";
    assert_eq!(rules_fired(HOT, src), ["no-panic-in-hot-path"]);
}

#[test]
fn for_next_item_covers_whole_function() {
    let src = "\
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — fixed 0..8 bounds
fn butterfly(x: [f64; 8]) -> [f64; 8] {
    let mut y = [0.0; 8];
    for i in 0..8 {
        y[i] = x[7 - i];
    }
    y
}
fn after(v: &[u8]) -> u8 { v[0] }";
    let r = analyze_source(HOT, src);
    // Both indexings inside `butterfly` suppressed; `after` still fires.
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].line, 9);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn for_next_item_survives_semicolons_in_signature_types() {
    // Regression: `[f64; 8]` in the signature must not terminate the
    // item span at the `;` inside the array type.
    let src = "\
// pcr-lint: allow(no-panic-in-hot-path) for-next-item — fixed bounds
fn f(input: &[f64; 64], output: &mut [f64; 64]) {
    for i in 0..64 {
        output[i] = input[63 - i];
    }
}";
    let r = analyze_source("crates/jpeg/src/dct.rs", src);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
    assert_eq!(r.suppressed, 2);
}

#[test]
fn for_next_item_does_not_cover_the_next_function() {
    let src = "\
// pcr-lint: allow(no-panic-in-hot-path) for-next-item
fn covered(v: &[u8]) -> u8 { v[0] }
fn not_covered(v: &[u8]) -> u8 { v[0] }";
    let r = analyze_source(HOT, src);
    assert_eq!(r.findings.len(), 1);
    assert_eq!(r.findings[0].line, 3);
}

#[test]
fn allow_inside_string_literal_is_inert() {
    let src = "fn f(v: &[u8]) -> u8 { let s = \"// pcr-lint: allow(no-panic-in-hot-path)\"; v[0] }";
    assert_eq!(rules_fired(HOT, src), ["no-panic-in-hot-path"]);
}

// report plumbing ---------------------------------------------------------

#[test]
fn findings_carry_position_and_message() {
    let src = "fn f(x: Option<u8>) {\n    x.unwrap();\n}";
    let r = analyze_source(HOT, src);
    assert_eq!(r.findings.len(), 1);
    let f = &r.findings[0];
    assert_eq!((f.line, f.file.as_str()), (2, HOT));
    assert!(f.col > 1);
    assert!(f.message.contains("unwrap"));
}
