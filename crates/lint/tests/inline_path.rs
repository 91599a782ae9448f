//! The reactor answers some units itself through `Proto::try_inline`,
//! so the linter must follow that trait call from reactor code into the
//! protocol. This pins it on the real workspace: swapping the server's
//! guarded `try_inline` for the naive one — straight to
//! `ImciProto::run`, which parks on replication waits and reads
//! storage — must surface new L009 and L011 findings, all reached
//! through the `try_inline` edge.

use imci_lint::{Finding, SourceFile, Workspace};
use std::path::Path;

const SERVER: &str = "crates/server/src/server.rs";

fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `text` with the body of `fn try_inline` replaced by `body`.
fn with_try_inline_body(text: &str, body: &str) -> String {
    let at = text
        .find("fn try_inline(")
        .expect("server defines try_inline");
    let open = at + text[at..].find('{').expect("body");
    let mut depth = 0;
    let mut close = open;
    for (i, ch) in text[open..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    close = open + i;
                    break;
                }
            }
            _ => {}
        }
    }
    format!("{}{{ {body} }}{}", &text[..open], &text[close + 1..])
}

fn findings(ws: &Workspace, rule: &str) -> Vec<Finding> {
    imci_lint::run_all(ws)
        .into_iter()
        .filter(|f| f.rule == rule)
        .collect()
}

#[test]
fn naive_try_inline_is_flagged_through_the_trait_edge() {
    let root = workspace_root();
    let real = Workspace::load(&root).unwrap();
    let files = real
        .files
        .iter()
        .map(|f| {
            let text = if f.rel_path.ends_with(SERVER) {
                with_try_inline_body(&f.text, "Ok(self.run(exec, vec![unit], out))")
            } else {
                f.text.clone()
            };
            SourceFile::new(f.rel_path.clone(), text)
        })
        .collect();
    let naive = Workspace::from_files(root, files);
    for rule in ["L009", "L011"] {
        let before = findings(&real, rule);
        let after = findings(&naive, rule);
        let new: Vec<&Finding> = after
            .iter()
            .filter(|f| {
                !before
                    .iter()
                    .any(|b| b.path == f.path && b.src_line == f.src_line)
            })
            .collect();
        // L009: the three blocking sinks `run` reaches (writer wait,
        // replication wait, morsel join). L011: the reactor's own
        // guards held across the calls that now reach them.
        assert_eq!(new.len(), 3, "{rule}: {new:#?}");
        for f in &new {
            assert!(
                f.msg
                    .contains("enqueue -> ImciProto::try_inline -> ImciProto::run"),
                "{f}"
            );
        }
    }
    // The real `try_inline` adds nothing to either rule.
    assert!(findings(&real, "L009")
        .iter()
        .chain(&findings(&real, "L011"))
        .all(|f| !f.msg.contains("try_inline")));
}
