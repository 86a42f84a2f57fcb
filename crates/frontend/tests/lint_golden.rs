//! Golden diagnostic tests: one fixture grammar per lint code, each
//! pinning the exact `AG0xx` code, source span, and JSON payload the
//! check driver must report — plus the meta grammar, which must check
//! clean (zero errors, zero warnings) and deterministically.

use linguist_ag::analysis::Config;
use linguist_ag::lint::{codes, Finding, LintConfig};
use linguist_ag::passes::PassConfig;
use linguist_frontend::check::{check_source, CheckReport};
use linguist_support::json::Json;

const META: &str = include_str!("../../grammars/lg/meta.lg");

/// Check under the paper-faithful configuration (optimizer off): the
/// goldens pin what the paper's analyses find, before the optimizer
/// folds or removes any of it.
fn check(source: &str) -> CheckReport {
    let config = Config {
        optimize: false,
        ..Config::default()
    };
    check_source(source, &config, &LintConfig::default())
}

fn only(report: &CheckReport, code: &str) -> Vec<Finding> {
    report
        .findings
        .iter()
        .filter(|f| f.code == code)
        .cloned()
        .collect()
}

fn payload_str<'a>(f: &'a Finding, key: &str) -> Option<&'a str> {
    f.payload.get(key).and_then(Json::as_str)
}

// ----------------------------------------------------------- AG001

#[test]
fn ag001_unused_attribute_fixture() {
    let src = "\
grammar Warny ;
terminals  x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  t : syn V int, syn DEAD int ;
start s ;
productions
prod s = t :
  s.V = t.V + 0 ;
end
prod t = x :
  t.V = x.OBJ ;
  t.DEAD = x.OBJ + 1 ;
end
end
";
    let r = check(src);
    let f = only(&r, codes::UNUSED_ATTRIBUTE);
    assert_eq!(f.len(), 1, "{:?}", f);
    let f = &f[0];
    // Span: the `DEAD` declaration on line 5.
    assert_eq!(f.span.start.line, 5);
    assert_eq!(f.message, "synthesized attribute t.DEAD is never consumed");
    assert_eq!(payload_str(f, "attr"), Some("t.DEAD"));
    assert_eq!(payload_str(f, "class"), Some("synthesized"));
    assert_eq!(
        f.payload.get("computed_definitions").and_then(Json::as_i64),
        Some(1)
    );
    assert_eq!(f.severity, linguist_support::diag::Severity::Warning);
}

// ----------------------------------------------------- AG002 / AG003

#[test]
fn ag002_unreachable_symbol_fixture() {
    let src = "\
grammar Island ;
terminals  x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  dead ;
start s ;
productions
prod s = x :
  s.V = x.OBJ ;
end
prod dead = x :
end
end
";
    let r = check(src);
    let f = only(&r, codes::UNREACHABLE_SYMBOL);
    assert_eq!(f.len(), 1, "{:?}", f);
    assert_eq!(f[0].span.start.line, 5);
    assert_eq!(
        f[0].message,
        "nonterminal dead is unreachable from the start symbol s"
    );
    assert_eq!(payload_str(&f[0], "symbol"), Some("dead"));
}

#[test]
fn ag003_unproductive_symbol_fixture() {
    let src = "\
grammar Loop ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s0 = s1 x :
  s0.V = s1.V + x.OBJ ;
end
end
";
    let r = check(src);
    let f = only(&r, codes::UNPRODUCTIVE_SYMBOL);
    assert_eq!(f.len(), 1, "{:?}", f);
    assert_eq!(f[0].span.start.line, 3);
    assert_eq!(f[0].message, "nonterminal s derives no terminal string");
    assert_eq!(
        f[0].payload.get("productions").and_then(Json::as_i64),
        Some(1)
    );
}

// ----------------------------------------------------------- AG004

#[test]
fn ag004_residual_copy_fixture() {
    // s.V = t.V copies from an attribute fed by intrinsic data; the
    // source can never be statically allocated, so subsumption keeps
    // the copy and the lint explains why.
    let src = "\
grammar Copy ;
terminals  x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  t : syn V int ;
start s ;
productions
prod s = t :
  s.V = t.V ;
end
prod t = x :
  t.V = x.OBJ ;
end
end
";
    let r = check(src);
    let f = only(&r, codes::RESIDUAL_COPY);
    // Both rules are copies (t.V = x.OBJ is a copy from the intrinsic),
    // and neither endpoint can be static; each survivor is explained.
    assert_eq!(f.len(), 2, "{:?}", f);
    let f = &f[0];
    // Span: the first copy rule itself on line 9.
    assert_eq!(f.span.start.line, 9);
    assert_eq!(
        f.message,
        "explicit copy rule s.V = t.V survives subsumption (not-static): \
         s.V is not statically allocated"
    );
    assert_eq!(payload_str(f, "reason"), Some("not-static"));
    assert_eq!(payload_str(f, "source"), Some("t.V"));
    assert_eq!(payload_str(f, "origin"), Some("explicit"));
    assert!(f.message.contains("survives subsumption"), "{}", f.message);
}

// ----------------------------------------------------------- AG005

#[test]
fn ag005_pass_blocker_fixture() {
    // b.CTX = a.V forces a second (left-to-right) pass under the
    // default right-to-left bootstrap: b sits right of a, so the
    // value is not yet available when pass 1 reaches b.
    let src = "\
grammar Bounce ;
terminals  x : intrinsic OBJ int ;
nonterminals
  root : syn OUT int ;
  a : syn V int ;
  b : syn W int, inh CTX int ;
start root ;
productions
prod root = a b :
  b.CTX = a.V ;
  root.OUT = b.W ;
end
prod a = x :
  a.V = x.OBJ ;
end
prod b = x :
  b.W = b.CTX + x.OBJ ;
end
end
";
    let r = check(src);
    assert_eq!(r.passes, Some(2));
    let f = only(&r, codes::PASS_BLOCKER);
    assert_eq!(f.len(), 1, "{:?}", f);
    let f = &f[0];
    assert_eq!(f.payload.get("pass").and_then(Json::as_i64), Some(2));
    assert_eq!(payload_str(f, "direction"), Some("left-to-right"));
    assert!(
        f.message.contains("b.CTX <- a.V"),
        "culprit chain missing: {}",
        f.message
    );
    // Span: the production whose dependency forced the boundary.
    assert_eq!(f.span.start.line, 9);
}

// ----------------------------------------------------------- AG006

#[test]
fn ag006_circularity_fixture() {
    let src = "\
grammar Cycle ;
terminals  x : intrinsic OBJ int ;
nonterminals
  s : syn V int ;
  t : syn S int, inh I int ;
start s ;
productions
prod s = t :
  t.I = t.S ;
  s.V = t.S ;
end
prod t = x :
  t.S = t.I ;
end
end
";
    let r = check(src);
    assert!(!r.clean());
    let f = only(&r, codes::CIRCULARITY);
    assert_eq!(f.len(), 1, "{:?}", f);
    let f = &f[0];
    assert!(f.message.contains("potential circularity"), "{}", f.message);
    assert!(f.message.contains("t.I") && f.message.contains("t.S"));
    let cycle = f.payload.get("cycle").and_then(Json::as_arr).unwrap();
    assert!(cycle.len() >= 2, "cycle too short: {}", f.payload);
}

// ----------------------------------------------------------- AG007

#[test]
fn ag007_incomplete_fixture() {
    let src = "\
grammar Gap ;
terminals  x ;
nonterminals  s : syn V int ;
start s ;
productions
prod s = x :
end
end
";
    let r = check(src);
    let f = only(&r, codes::INCOMPLETE);
    assert_eq!(f.len(), 1, "{:?}", f);
    let f = &f[0];
    assert_eq!(f.span.start.line, 6); // the production with the gap
    assert_eq!(payload_str(f, "kind"), Some("undefined"));
    assert_eq!(payload_str(f, "occurrence"), Some("s.V"));
    assert!(
        f.message
            .contains("no semantic function defines s.V (lhs) in this production of s"),
        "{}",
        f.message
    );
    assert!(!r.clean());
}

// ----------------------------------------------------------- AG008

#[test]
fn ag008_lifetime_hotspot_fixture() {
    // Same bounce shape as AG005; with the threshold lowered to 1,
    // a.V (computed in pass 1, consumed in pass 2) is a hotspot.
    let src = "\
grammar Bounce ;
terminals  x : intrinsic OBJ int ;
nonterminals
  root : syn OUT int ;
  a : syn V int ;
  b : syn W int, inh CTX int ;
start root ;
productions
prod root = a b :
  b.CTX = a.V ;
  root.OUT = b.W ;
end
prod a = x :
  a.V = x.OBJ ;
end
prod b = x :
  b.W = b.CTX + x.OBJ ;
end
end
";
    let r = check_source(
        src,
        &Config::default(),
        &LintConfig {
            lifetime_threshold: 1,
            ..LintConfig::default()
        },
    );
    let f = only(&r, codes::LIFETIME_HOTSPOT);
    let hot: Vec<&Finding> = f
        .iter()
        .filter(|f| payload_str(f, "attr") == Some("a.V"))
        .collect();
    assert_eq!(hot.len(), 1, "{:?}", f);
    let f = hot[0];
    assert_eq!(f.span.start.line, 5); // a.V's declaration
    assert_eq!(f.payload.get("earliest").and_then(Json::as_i64), Some(1));
    assert_eq!(f.payload.get("latest").and_then(Json::as_i64), Some(2));
    assert!(f.message.contains("live from pass 1 to pass 2"));
}

// ----------------------------------------------------------- AG009

#[test]
fn ag009_shadowed_attribute_fixture() {
    let src = "\
grammar Shadow ;
terminals  x : intrinsic OBJ int ;
nonterminals
  s : syn VAL int ;
  t : syn VAL string ;
start s ;
productions
prod s = t :
  s.VAL = t.VAL ;
end
prod t = x :
  t.VAL = x.OBJ ;
end
end
";
    let r = check(src);
    let f = only(&r, codes::SHADOWED_ATTRIBUTE);
    assert_eq!(f.len(), 1, "{:?}", f);
    let f = &f[0];
    assert_eq!(f.span.start.line, 5); // the later, conflicting decl
    assert_eq!(payload_str(f, "attr"), Some("t.VAL"));
    assert_eq!(payload_str(f, "type"), Some("string"));
    assert_eq!(payload_str(f, "earlier"), Some("s.VAL"));
    assert_eq!(payload_str(f, "earlier_type"), Some("int"));
}

// ----------------------------------------------------------- AG010

#[test]
fn ag010_not_pass_evaluable_fixture() {
    // The bounce grammar needs two passes; with max_passes capped at 1
    // the schedule cannot exist.
    let src = "\
grammar Bounce ;
terminals  x : intrinsic OBJ int ;
nonterminals
  root : syn OUT int ;
  a : syn V int ;
  b : syn W int, inh CTX int ;
start root ;
productions
prod root = a b :
  b.CTX = a.V ;
  root.OUT = b.W ;
end
prod a = x :
  a.V = x.OBJ ;
end
prod b = x :
  b.W = b.CTX + x.OBJ ;
end
end
";
    let config = Config {
        pass: PassConfig {
            max_passes: 1,
            ..PassConfig::default()
        },
        ..Config::default()
    };
    let r = check_source(src, &config, &LintConfig::default());
    assert!(!r.clean());
    let f = only(&r, codes::NOT_PASS_EVALUABLE);
    assert_eq!(f.len(), 1, "{:?}", f);
    assert_eq!(payload_str(&f[0], "kind"), Some("too-many-passes"));
    assert_eq!(f[0].payload.get("limit").and_then(Json::as_i64), Some(1));
    // Structural lints still ran on the degraded path.
    assert_eq!(r.passes, None);
}

// ----------------------------------------------- AG011 / AG012

#[test]
fn ag011_syntax_error_fixture() {
    let r = check("grammar ;;;");
    assert_eq!(r.findings.len(), 1);
    let f = &r.findings[0];
    assert_eq!(f.code, codes::SYNTAX);
    assert_eq!(payload_str(f, "kind"), Some("syntax"));
    assert!(f.message.starts_with("syntax error:"), "{}", f.message);
}

#[test]
fn ag012_resolution_error_fixture() {
    let src = "\
grammar Res ;
terminals  x : intrinsic OBJ int ;
nonterminals  s : syn V int ;
start s ;
productions
prod s = x :
  s.V = x.NOPE ;
end
end
";
    let r = check(src);
    assert!(!r.clean());
    let f = only(&r, codes::RESOLUTION);
    assert_eq!(f.len(), 1, "{:?}", f);
    assert_eq!(f[0].span.start.line, 7);
    assert_eq!(payload_str(&f[0], "kind"), Some("resolution"));
    assert!(f[0].message.contains("NOPE"), "{}", f[0].message);
}

// ------------------------------------------------------ meta golden

#[test]
fn meta_checks_clean_with_pinned_severity_counts() {
    let r = check(META);
    assert_eq!(r.errors(), 0, "meta must have zero errors");
    assert_eq!(
        r.warnings(),
        0,
        "meta must have zero warnings: {:?}",
        r.findings
            .iter()
            .filter(|f| f.severity == linguist_support::diag::Severity::Warning)
            .map(|f| &f.message)
            .collect::<Vec<_>>()
    );
    assert_eq!(r.passes, Some(4));
    assert!(r.clean_denying_warnings());
    // The note population is stable: the paper's copy residue plus the
    // schedule explanation and a handful of structural notes.
    assert_eq!(r.notes(), 100);
}

#[test]
fn meta_residue_notes_match_the_papers_subsumption_table() {
    // 154 copy rules, 75 subsumed: every one of the 79 survivors gets
    // exactly one AG004 explanation.
    let r = check(META);
    assert_eq!(only(&r, codes::RESIDUAL_COPY).len(), 79);
}

#[test]
fn meta_pass_blockers_name_the_schedule_dependencies() {
    // The meta grammar is engineered around a 4-pass schedule
    // (R-L, L-R, R-L, L-R); each boundary must be explained by the
    // attribute families that force it.
    let r = check(META);
    let blockers = only(&r, codes::PASS_BLOCKER);
    assert_eq!(blockers.len(), 3, "one blocker per boundary beyond pass 1");
    let by_pass = |k: i64| -> &Finding {
        blockers
            .iter()
            .find(|f| f.payload.get("pass").and_then(Json::as_i64) == Some(k))
            .unwrap()
    };
    // Pass 2 (L-R): the duplicate-detection SEEN threading.
    let p2 = by_pass(2);
    assert_eq!(payload_str(p2, "direction"), Some("left-to-right"));
    assert!(p2.message.contains("symdecl.SEEN <- symdecls.OUTSEEN"));
    // Pass 3 (R-L): the backward used-later liveness flow.
    let p3 = by_pass(3);
    assert_eq!(payload_str(p3, "direction"), Some("right-to-left"));
    assert!(p3
        .message
        .contains("sections.USEDLATER <- FileLimb.ALLUSED"));
    // Pass 4 (L-R): message numbering off the pass-3 results.
    let p4 = by_pass(4);
    assert_eq!(payload_str(p4, "direction"), Some("left-to-right"));
    assert!(p4.message.contains("symdecl.NUM <- symdecls.OUTNUM"));
}

#[test]
fn meta_json_report_is_deterministic_across_runs() {
    let a = check(META).to_json("meta.lg").to_string();
    let b = check(META).to_json("meta.lg").to_string();
    assert_eq!(a, b);
    assert!(a.starts_with(r#"{"grammar":"meta.lg","errors":0,"warnings":0"#));
}

#[test]
fn every_registered_code_has_severity_and_description() {
    // The registry is the documentation contract for the JSON schema:
    // sorted, unique, and covering every code the fixtures above pin.
    let codes_seen: Vec<&str> = linguist_ag::lint::REGISTRY.iter().map(|e| e.0).collect();
    for c in [
        codes::UNUSED_ATTRIBUTE,
        codes::UNREACHABLE_SYMBOL,
        codes::UNPRODUCTIVE_SYMBOL,
        codes::RESIDUAL_COPY,
        codes::PASS_BLOCKER,
        codes::CIRCULARITY,
        codes::INCOMPLETE,
        codes::LIFETIME_HOTSPOT,
        codes::SHADOWED_ATTRIBUTE,
        codes::NOT_PASS_EVALUABLE,
        codes::SYNTAX,
        codes::RESOLUTION,
    ] {
        assert!(codes_seen.contains(&c), "{} missing from REGISTRY", c);
    }
}
