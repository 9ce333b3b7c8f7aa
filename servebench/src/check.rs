//! The response checker: every line is answered once under its id with
//! the right body kind; a sweep streams one `sweep_report` per scenario
//! in index order, then `sweep_done`; a bad line gets its expected error
//! code. Transcripts compare as sorted response lines.

use crate::workload::{fnv1a, Expect, Line};
use cnfet_pipeline::Json;
use std::collections::{HashMap, VecDeque};

/// What the checker needs from one response.
#[derive(Debug, Clone, PartialEq)]
pub struct View {
    /// The id it answers.
    pub id: String,
    /// The single key of its body (`report`, `sweep_report`, ...).
    pub kind: String,
    /// `error.code` of an error body.
    pub code: Option<String>,
    /// `index`/`total`/`failed` of sweep bodies.
    pub index: Option<u64>,
    /// `total` of sweep bodies.
    pub total: Option<u64>,
    /// `failed` of a `sweep_done`.
    pub failed: Option<u64>,
}

impl View {
    /// Read a response document; `None` when it is not a response.
    pub fn of(doc: &Json) -> Option<View> {
        let id = doc.get("id")?.as_str()?.to_string();
        let [(kind, payload)] = doc.get("body")?.as_object()? else {
            return None;
        };
        let num = |key: &str| payload.get(key).and_then(Json::as_u64);
        Some(View {
            id,
            kind: kind.clone(),
            code: payload
                .get("code")
                .and_then(Json::as_str)
                .map(str::to_string),
            index: num("index"),
            total: num("total"),
            failed: num("failed"),
        })
    }

    /// Read a response before it is encoded.
    pub fn of_response(response: &cnfet_pipeline::YieldResponse) -> View {
        use cnfet_pipeline::ResponseBody as B;
        let mut view = View {
            id: response.id.clone(),
            kind: String::new(),
            code: None,
            index: None,
            total: None,
            failed: None,
        };
        view.kind = match &response.body {
            B::Report(_) => "report",
            B::SweepReport { index, total, .. } => {
                view.index = Some(*index);
                view.total = Some(*total);
                "sweep_report"
            }
            B::SweepDone { total, failed } => {
                view.total = Some(*total);
                view.failed = Some(*failed);
                "sweep_done"
            }
            B::CoOpt(_) => "co_opt_report",
            B::Wafer(_) => "wafer_report",
            B::Describe(_) => "describe",
            B::Error(e) => {
                view.code = Some(e.code.tag().to_string());
                "error"
            }
        }
        .to_string();
        view
    }
}

/// A request awaiting its terminal response.
#[derive(Debug, Clone)]
struct Open {
    index: usize,
    expect: Expect,
    reports: u64,
    ok: bool,
}

/// The outcome of one response for the closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The response belongs to a request that stays open (a sweep).
    Progress(usize),
    /// The response ends request `index`.
    Done(usize),
    /// The response answers no open request.
    Stray,
}

/// Tracks open requests and collects failures by request index.
#[derive(Debug, Default)]
pub struct Checker {
    open: HashMap<String, Open>,
    /// Truncated lines share the empty wire id; they are answered in turn.
    anonymous: VecDeque<Open>,
    failures: Vec<(usize, String)>,
    strays: usize,
}

impl Checker {
    /// A checker with nothing open.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register request `index` as sent.
    pub fn open(&mut self, index: usize, line: &Line) {
        let open = Open {
            index,
            expect: line.expect,
            reports: 0,
            ok: true,
        };
        if line.wire_id().is_empty() {
            self.anonymous.push_back(open);
        } else {
            self.open.insert(line.id.clone(), open);
        }
    }

    /// Requests still awaiting an answer.
    pub fn pending(&self) -> usize {
        self.open.len() + self.anonymous.len()
    }

    /// Check one response line as received on the wire.
    pub fn response_text(&mut self, text: &str) -> Step {
        match Json::parse(text).ok().as_ref().and_then(View::of) {
            Some(view) => self.response(&view),
            None => {
                self.strays += 1;
                Step::Stray
            }
        }
    }

    /// Check one response.
    pub fn response(&mut self, view: &View) -> Step {
        let mut open = if view.id.is_empty() {
            match self.anonymous.pop_front() {
                Some(open) => open,
                None => {
                    self.strays += 1;
                    return Step::Stray;
                }
            }
        } else {
            match self.open.remove(&view.id) {
                Some(open) => open,
                None => {
                    self.strays += 1;
                    return Step::Stray;
                }
            }
        };
        let terminal = match open.expect {
            Expect::Sweep(n) => match view.kind.as_str() {
                "sweep_report" => {
                    if view.index != Some(open.reports) || view.total != Some(n) {
                        self.fail(&mut open, "sweep report out of order");
                    }
                    open.reports += 1;
                    false
                }
                "sweep_done" => {
                    if open.reports != n || view.total != Some(n) || view.failed != Some(0) {
                        let reason = format!("sweep ended after {} of {n} reports", open.reports);
                        self.fail(&mut open, &reason);
                    }
                    true
                }
                other => {
                    self.fail(&mut open, &format!("sweep answered with `{other}`"));
                    other != "error"
                }
            },
            expect => {
                let wanted = match expect {
                    Expect::Report => "report",
                    Expect::Describe => "describe",
                    Expect::Wafer => "wafer_report",
                    Expect::CoOpt => "co_opt_report",
                    Expect::Error(_) | Expect::Sweep(_) => "error",
                };
                if view.kind != wanted {
                    self.fail(
                        &mut open,
                        &format!("expected `{wanted}`, got `{}`", view.kind),
                    );
                } else if let Expect::Error(code) = expect {
                    if view.code.as_deref() != Some(code) {
                        self.fail(
                            &mut open,
                            &format!("expected error code `{code}`, got {:?}", view.code),
                        );
                    }
                }
                true
            }
        };
        let index = open.index;
        if terminal {
            Step::Done(index)
        } else {
            if view.id.is_empty() {
                self.anonymous.push_front(open);
            } else {
                self.open.insert(view.id.clone(), open);
            }
            Step::Progress(index)
        }
    }

    fn fail(&mut self, open: &mut Open, reason: &str) {
        if open.ok {
            open.ok = false;
            self.failures.push((open.index, reason.to_string()));
        }
    }

    /// Close the books: every request still open failed with no answer.
    /// Returns the failures (one per failed request, by index) and the
    /// number of responses that answered nothing open.
    pub fn finish(mut self) -> (Vec<(usize, String)>, usize) {
        let unanswered: Vec<usize> = self
            .open
            .values()
            .chain(&self.anonymous)
            .filter(|open| open.ok)
            .map(|open| open.index)
            .collect();
        for index in unanswered {
            self.failures.push((index, "no answer".to_string()));
        }
        self.failures.sort();
        (self.failures, self.strays)
    }
}

/// A run's responses: `(line index, FNV-1a of the response line)`, the
/// index being `usize::MAX` for a response that answered nothing open.
/// Kept as hashes so a run of a few hundred thousand lines stays small.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Transcript(Vec<(usize, u64)>);

impl Transcript {
    /// Record one response.
    pub fn push(&mut self, step: Step, text: &str) {
        let index = match step {
            Step::Done(i) | Step::Progress(i) => i,
            Step::Stray => usize::MAX,
        };
        self.0.push((index, fnv1a(text.as_bytes())));
    }

    /// Order-independent digest: FNV-1a over the sorted response hashes.
    pub fn digest(&self) -> u64 {
        let mut hashes: Vec<u64> = self.0.iter().map(|(_, h)| *h).collect();
        hashes.sort_unstable();
        let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
        fnv1a(&bytes)
    }

    /// The line indices whose responses differ between two transcripts.
    pub fn mismatched(&self, other: &Transcript) -> Vec<usize> {
        let sorted = |t: &Transcript| {
            let mut v = t.0.clone();
            v.sort_unstable();
            v
        };
        let (a, b) = (sorted(self), sorted(other));
        let group = |v: &[(usize, u64)]| {
            let mut map: HashMap<usize, Vec<u64>> = HashMap::new();
            for (i, h) in v {
                map.entry(*i).or_default().push(*h);
            }
            map
        };
        let (ga, gb) = (group(&a), group(&b));
        let mut out: Vec<usize> = ga
            .iter()
            .filter(|(i, hs)| gb.get(*i) != Some(hs))
            .map(|(i, _)| *i)
            .chain(gb.keys().filter(|i| !ga.contains_key(*i)).copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Responses recorded.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Generator, Kind, WORKLOADS};

    fn line_of(kind: Kind) -> Line {
        let w = WORKLOADS[0];
        Generator::new(w, 1)
            .take(3 * w.cycle_len())
            .find(|l| l.kind == kind)
            .unwrap()
    }

    fn resp(id: &str, body: &str) -> String {
        format!(r#"{{"schema":1,"id":"{id}","body":{body}}}"#)
    }

    #[test]
    fn accepts_a_well_formed_session() {
        let (eval, sweep) = (line_of(Kind::Evaluate), line_of(Kind::Sweep));
        let mut c = Checker::new();
        c.open(0, &eval);
        c.open(1, &sweep);
        for i in 0..3 {
            let r = resp(
                &sweep.id,
                &format!(r#"{{"sweep_report":{{"index":{i},"total":3}}}}"#),
            );
            assert_eq!(c.response_text(&r), Step::Progress(1));
        }
        let done = resp(&sweep.id, r#"{"sweep_done":{"total":3,"failed":0}}"#);
        assert_eq!(c.response_text(&done), Step::Done(1));
        assert_eq!(
            c.response_text(&resp(&eval.id, r#"{"report":{}}"#)),
            Step::Done(0)
        );
        assert_eq!(c.finish(), (vec![], 0));
    }

    #[test]
    fn rejects_a_missing_id() {
        let eval = line_of(Kind::Evaluate);
        let mut c = Checker::new();
        c.open(4, &eval);
        // An answer under another id answers nothing open.
        assert_eq!(
            c.response_text(&resp("other", r#"{"report":{}}"#)),
            Step::Stray
        );
        let (failures, strays) = c.finish();
        assert_eq!(failures, vec![(4, "no answer".to_string())]);
        assert_eq!(strays, 1);
    }

    #[test]
    fn rejects_a_wrong_body_kind() {
        let eval = line_of(Kind::Evaluate);
        let mut c = Checker::new();
        c.open(2, &eval);
        assert_eq!(
            c.response_text(&resp(&eval.id, r#"{"wafer_report":{}}"#)),
            Step::Done(2)
        );
        let (failures, _) = c.finish();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.contains("expected `report`"), "{failures:?}");
    }

    #[test]
    fn rejects_a_short_sweep() {
        let sweep = line_of(Kind::Sweep);
        let mut c = Checker::new();
        c.open(7, &sweep);
        for i in 0..2 {
            let r = resp(
                &sweep.id,
                &format!(r#"{{"sweep_report":{{"index":{i},"total":3}}}}"#),
            );
            c.response_text(&r);
        }
        let done = resp(&sweep.id, r#"{"sweep_done":{"total":3,"failed":0}}"#);
        assert_eq!(c.response_text(&done), Step::Done(7));
        let (failures, _) = c.finish();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].1.contains("2 of 3"), "{failures:?}");
    }

    #[test]
    fn bad_lines_need_their_code() {
        let lines: Vec<Line> = Generator::new(WORKLOADS[0], 1)
            .take(600)
            .filter(|l| l.kind == Kind::Bad)
            .collect();
        let mut c = Checker::new();
        for (i, line) in lines.iter().enumerate() {
            c.open(i, line);
        }
        for line in &lines {
            let Expect::Error(code) = line.expect else {
                panic!("bad lines expect errors")
            };
            let body = format!(r#"{{"error":{{"code":"{code}"}}}}"#);
            assert!(matches!(
                c.response_text(&resp(line.wire_id(), &body)),
                Step::Done(_)
            ));
        }
        assert_eq!(c.finish(), (vec![], 0));
        let codes: std::collections::BTreeSet<String> =
            lines.iter().map(|l| format!("{:?}", l.expect)).collect();
        assert_eq!(codes.len(), 3, "all three malformed forms appear");
    }

    #[test]
    fn digests_and_mismatches() {
        let mut a = Transcript::default();
        a.push(Step::Done(0), &resp("a", r#"{"report":{"x":1}}"#));
        a.push(Step::Done(1), &resp("b", r#"{"report":{}}"#));
        let mut b = Transcript::default();
        b.push(Step::Done(1), &resp("b", r#"{"report":{}}"#));
        b.push(Step::Done(0), &resp("a", r#"{"report":{"x":1}}"#));
        assert_eq!(a.digest(), b.digest(), "order does not matter");
        assert!(a.mismatched(&b).is_empty());
        let mut c = Transcript::default();
        c.push(Step::Done(0), &resp("a", r#"{"report":{"x":2}}"#));
        c.push(Step::Done(1), &resp("b", r#"{"report":{}}"#));
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.mismatched(&c), vec![0]);
    }
}
