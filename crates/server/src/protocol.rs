//! Wire protocol: newline-delimited JSON requests and replies.
//!
//! Every request is one JSON object on one line with an `"op"` field;
//! every reply is one JSON object on one line with `"ok"` (and, when
//! the request carried an `"id"`, the same id echoed back so pipelined
//! clients can match replies to requests). See `docs/protocol.md` for
//! the full wire-format reference with examples.

use hdl_base::Json;
use hdl_core::session::EngineKind;
use hdl_core::OpText;
use hdl_service::Outcome;
use std::cell::RefCell;
use std::time::Duration;

/// Protocol revision advertised by `hello`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Per-request evaluation options (all optional).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryOpts {
    /// Engine override (`"top-down"` / `"bottom-up"`).
    pub engine: Option<EngineKind>,
    /// Wall-clock budget in milliseconds.
    pub deadline: Option<Duration>,
    /// Per-query fact budget override.
    pub max_facts: Option<u64>,
}

/// One parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Protocol handshake; legal before `open`.
    Hello,
    /// Bind this connection to the named tenant (creating it on first
    /// use).
    Open {
        /// Tenant name (`[A-Za-z0-9_-]{1,64}`).
        tenant: String,
        /// Per-tenant replication quorum override: a mutation is acked
        /// only after this many followers hold it (0 = async, the
        /// default). Refused if it exceeds the configured target count.
        sync: Option<u64>,
    },
    /// A yes/no query (`?-` dressing optional).
    Query {
        /// The goal text.
        q: String,
        /// Evaluation options.
        opts: QueryOpts,
    },
    /// All tuples matching a plain atom pattern.
    Answers {
        /// The pattern, e.g. `tc(X, Y)`.
        pattern: String,
        /// Evaluation options.
        opts: QueryOpts,
    },
    /// Load program text (rules and facts) into the tenant.
    Load {
        /// Program source.
        program: String,
    },
    /// Push an assumption frame of ground facts.
    Assume {
        /// Comma/period-separated ground facts.
        facts: String,
    },
    /// Pop the top assumption frame.
    Pop,
    /// Retract one base fact.
    Retract {
        /// The fact text.
        fact: String,
    },
    /// Compact the tenant's WAL into a checkpoint.
    Checkpoint,
    /// Counters: server-level, plus tenant-level once bound.
    Stats,
    /// End this connection (the tenant itself persists).
    Close,
    /// Ask the server to drain and exit (graceful shutdown).
    Shutdown,
    /// Replication (primary → follower): where should shipping resume
    /// for this tenant?
    RepPosition {
        /// Tenant name.
        tenant: String,
        /// The sender's fencing epoch (absent from pre-fencing peers).
        fence: Option<u64>,
    },
    /// Replication: a window of committed WAL bytes at an exact
    /// position.
    RepWindow {
        /// Tenant name.
        tenant: String,
        /// Checkpoint epoch the offset refers to.
        epoch: u64,
        /// Byte offset of the window's first byte.
        offset: u64,
        /// Base64 of the raw frame bytes.
        data: String,
        /// The sender's fencing epoch (absent from pre-fencing peers).
        fence: Option<u64>,
    },
    /// Replication: a checkpoint image the follower must install before
    /// windows can resume (the primary rotated past its position).
    RepCheckpoint {
        /// Tenant name.
        tenant: String,
        /// Epoch of the image.
        epoch: u64,
        /// Base64 of the serialized checkpoint.
        data: String,
        /// The sender's fencing epoch (absent from pre-fencing peers).
        fence: Option<u64>,
    },
    /// Replication: liveness probe; refreshes the follower's
    /// last-primary-contact clock.
    RepHeartbeat {
        /// The sender's fencing epoch (absent from pre-fencing peers).
        fence: Option<u64>,
    },
    /// Tells this server a fencing epoch exists (e.g. an operator or a
    /// peer announcing a promotion). A writable server that learns of a
    /// newer epoch latches itself read-only.
    RepFence {
        /// The fencing epoch being announced.
        epoch: u64,
    },
    /// Operator op: promote this follower to primary. Replicas reopen
    /// as normal writable tenants; mutations are accepted afterwards.
    Promote,
}

impl Request {
    /// The op text of a mutation request; `None` for everything else.
    pub fn op_text(&self) -> Option<OpText<'_>> {
        match self {
            Request::Load { program } => Some(OpText::Load(program)),
            Request::Assume { facts } => Some(OpText::Assume(facts)),
            Request::Pop => Some(OpText::Pop),
            Request::Retract { fact } => Some(OpText::Retract(fact)),
            _ => None,
        }
    }

    /// Parses one protocol line. Returns the request plus the echoed id
    /// (if any). Parsing stops after
    /// [`MAX_REQUEST_VALUES`](hdl_base::json::MAX_REQUEST_VALUES) values,
    /// so a line far larger than any request costs no more than the line
    /// itself.
    pub fn parse(line: &str) -> Result<(Request, Option<u64>), String> {
        let Json::Obj(mut map) = Json::parse_request(line)? else {
            return Err("missing \"op\" field".into());
        };
        let id = map.get("id").and_then(Json::as_u64);
        let Some(Json::Str(op)) = map.remove("op") else {
            return Err("missing \"op\" field".into());
        };
        // `text` moves its string out of the object, so a long program
        // is not copied again; the other readers borrow it.
        let map = RefCell::new(map);
        let text = |field: &str| -> Result<String, String> {
            match map.borrow_mut().remove(field) {
                Some(Json::Str(s)) => Ok(s),
                _ => Err(format!("op `{op}` needs a string \"{field}\" field")),
            }
        };
        let opt_num = |field: &str| map.borrow().get(field).and_then(Json::as_u64);
        let number = |field: &str| -> Result<u64, String> {
            opt_num(field).ok_or_else(|| format!("op `{op}` needs a numeric \"{field}\" field"))
        };
        let opts = || -> Result<QueryOpts, String> {
            let engine = match map.borrow().get("engine").and_then(Json::as_str) {
                Some(name) => Some(name.parse::<EngineKind>().map_err(|e| e.to_string())?),
                None => None,
            };
            Ok(QueryOpts {
                engine,
                deadline: opt_num("deadline_ms").map(Duration::from_millis),
                max_facts: opt_num("max_facts"),
            })
        };
        let request = match op.as_str() {
            "hello" => Request::Hello,
            "open" => Request::Open {
                tenant: text("tenant")?,
                sync: opt_num("sync"),
            },
            "query" => Request::Query {
                q: text("q")?,
                opts: opts()?,
            },
            "answers" => Request::Answers {
                pattern: text("pattern")?,
                opts: opts()?,
            },
            "load" => Request::Load {
                program: text("program")?,
            },
            "assume" => Request::Assume {
                facts: text("facts")?,
            },
            "pop" => Request::Pop,
            "retract" => Request::Retract {
                fact: text("fact")?,
            },
            "checkpoint" => Request::Checkpoint,
            "stats" => Request::Stats,
            "close" => Request::Close,
            "shutdown" => Request::Shutdown,
            "rep_position" => Request::RepPosition {
                tenant: text("tenant")?,
                fence: opt_num("fence"),
            },
            "rep_window" => Request::RepWindow {
                tenant: text("tenant")?,
                epoch: number("epoch")?,
                offset: number("offset")?,
                data: text("data")?,
                fence: opt_num("fence"),
            },
            "rep_checkpoint" => Request::RepCheckpoint {
                tenant: text("tenant")?,
                epoch: number("epoch")?,
                data: text("data")?,
                fence: opt_num("fence"),
            },
            "rep_heartbeat" => Request::RepHeartbeat {
                fence: opt_num("fence"),
            },
            "rep_fence" => Request::RepFence {
                epoch: number("epoch")?,
            },
            "promote" => Request::Promote,
            other => return Err(format!("unknown op `{other}`")),
        };
        Ok((request, id))
    }
}

/// Builds one reply line (no trailing newline).
pub struct Reply {
    fields: Vec<(&'static str, Json)>,
}

impl Reply {
    /// A success reply for `op`.
    pub fn ok(op: &str) -> Reply {
        Reply {
            fields: vec![("ok", Json::Bool(true)), ("op", Json::str(op))],
        }
    }

    /// A failure reply with a machine-readable `kind` (`parse`,
    /// `protocol`, `no-tenant`, `bad-tenant-name`, `quota`,
    /// `overloaded`, `query`, `shutdown`, `internal`, `read_only`,
    /// `rep-position`, `fenced`, `degraded_ack`).
    pub fn err(kind: &str, message: impl Into<String>) -> Reply {
        Reply {
            fields: vec![
                ("ok", Json::Bool(false)),
                ("kind", Json::str(kind)),
                ("error", Json::str(message.into())),
            ],
        }
    }

    /// Adds a field.
    pub fn with(mut self, key: &'static str, value: Json) -> Reply {
        self.fields.push((key, value));
        self
    }

    /// Renders the reply as one line, echoing `id` when present.
    pub fn render(mut self, id: Option<u64>) -> String {
        if let Some(id) = id {
            self.fields.push(("id", Json::num(id as f64)));
        }
        Json::obj(self.fields.iter().map(|(k, v)| (*k, v.clone())).collect()).to_string()
    }
}

/// Maps a service [`Outcome`] to its reply. Structured budget trips are
/// `ok:true` results (the protocol worked; the query hit its budget) —
/// only [`Outcome::Error`] and [`Outcome::Overloaded`] are failures.
pub fn outcome_reply(op: &str, outcome: &Outcome) -> Reply {
    let rows_json = |rows: &[Vec<String>]| {
        Json::Arr(
            rows.iter()
                .map(|row| Json::Arr(row.iter().map(Json::str).collect()))
                .collect(),
        )
    };
    match outcome {
        Outcome::True => Reply::ok(op).with("result", Json::str("true")),
        Outcome::False => Reply::ok(op).with("result", Json::str("false")),
        Outcome::Answers(rows) => Reply::ok(op)
            .with("result", Json::str("answers"))
            .with("rows", rows_json(rows))
            .with("count", Json::num(rows.len() as f64)),
        Outcome::Cancelled => Reply::ok(op).with("result", Json::str("cancelled")),
        Outcome::DeadlineExceeded => Reply::ok(op).with("result", Json::str("deadline-exceeded")),
        Outcome::MemoryExceeded => Reply::ok(op).with("result", Json::str("memory-exceeded")),
        Outcome::Overloaded => Reply::err("overloaded", "tenant queue at capacity")
            .with("result", Json::str("overloaded")),
        Outcome::Partial { rows, reason } => Reply::ok(op)
            .with("result", Json::str("partial"))
            .with("rows", rows_json(rows))
            .with("count", Json::num(rows.len() as f64))
            .with("reason", Json::str(reason)),
        Outcome::Error(msg) => Reply::err("query", msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdl_base::json::MAX_REQUEST_VALUES;

    #[test]
    fn parses_the_full_op_set() {
        let cases = [
            ("{\"op\":\"hello\"}", Request::Hello),
            (
                "{\"op\":\"open\",\"tenant\":\"t1\"}",
                Request::Open {
                    tenant: "t1".into(),
                    sync: None,
                },
            ),
            (
                "{\"op\":\"open\",\"tenant\":\"t1\",\"sync\":2}",
                Request::Open {
                    tenant: "t1".into(),
                    sync: Some(2),
                },
            ),
            (
                "{\"op\":\"rep_heartbeat\",\"fence\":7}",
                Request::RepHeartbeat { fence: Some(7) },
            ),
            (
                "{\"op\":\"rep_fence\",\"epoch\":3}",
                Request::RepFence { epoch: 3 },
            ),
            (
                "{\"op\":\"rep_position\",\"tenant\":\"t1\",\"fence\":1}",
                Request::RepPosition {
                    tenant: "t1".into(),
                    fence: Some(1),
                },
            ),
            ("{\"op\":\"pop\"}", Request::Pop),
            ("{\"op\":\"checkpoint\"}", Request::Checkpoint),
            ("{\"op\":\"stats\"}", Request::Stats),
            ("{\"op\":\"close\"}", Request::Close),
            ("{\"op\":\"shutdown\"}", Request::Shutdown),
        ];
        for (line, expected) in cases {
            let (req, id) = Request::parse(line).unwrap();
            assert_eq!(req, expected, "{line}");
            assert_eq!(id, None);
        }
    }

    #[test]
    fn query_opts_parse() {
        let (req, id) = Request::parse(
            "{\"op\":\"query\",\"q\":\"?- p(a).\",\"engine\":\"bottom-up\",\
             \"deadline_ms\":250,\"max_facts\":1000,\"id\":9}",
        )
        .unwrap();
        assert_eq!(id, Some(9));
        match req {
            Request::Query { q, opts } => {
                assert_eq!(q, "?- p(a).");
                assert_eq!(opts.engine, Some(EngineKind::BottomUp));
                assert_eq!(opts.deadline, Some(Duration::from_millis(250)));
                assert_eq!(opts.max_facts, Some(1000));
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn missing_fields_are_structured_errors() {
        assert!(Request::parse("{\"op\":\"open\"}").is_err());
        assert!(Request::parse("{\"op\":\"query\"}").is_err());
        assert!(Request::parse("{\"q\":\"p\"}").is_err());
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
        assert!(Request::parse("{\"op\":\"rep_fence\"}").is_err());
        assert!(Request::parse("not json").is_err());
    }

    #[test]
    fn requests_holding_too_many_values_are_parse_errors() {
        // The object, its two members and `n` elements: n + 3 values.
        let stats = |n| format!("{{\"op\":\"stats\",\"pad\":[{}]}}", vec!["0"; n].join(","));
        let fits = Request::parse(&stats(MAX_REQUEST_VALUES - 3));
        assert_eq!(fits.unwrap().0, Request::Stats);
        let err = Request::parse(&stats(MAX_REQUEST_VALUES - 2)).unwrap_err();
        assert!(err.starts_with("more than"), "{err}");
        // Far past the limit, parsing stops at the limit's element.
        let flat = format!("[{}]", vec!["0"; 1 << 20].join(","));
        let err = Request::parse(&flat).unwrap_err();
        let at = format!("at byte {}", 2 * MAX_REQUEST_VALUES - 1);
        assert!(err.ends_with(&at), "{err}");
        // Replies parse without the limit.
        assert!(Json::parse(&flat).is_ok());
    }

    #[test]
    fn replies_render_stably() {
        assert_eq!(
            Reply::ok("hello").render(None),
            "{\"ok\":true,\"op\":\"hello\"}"
        );
        assert_eq!(
            Reply::err("quota", "too many facts").render(Some(3)),
            "{\"error\":\"too many facts\",\"id\":3,\"kind\":\"quota\",\"ok\":false}"
        );
    }

    #[test]
    fn outcome_mapping() {
        let line = outcome_reply("query", &Outcome::True).render(None);
        assert!(line.contains("\"result\":\"true\""));
        let rows = Outcome::Answers(vec![vec!["a".into(), "b".into()]]);
        let line = outcome_reply("answers", &rows).render(None);
        assert!(line.contains("\"rows\":[[\"a\",\"b\"]]"));
        assert!(line.contains("\"count\":1"));
        let line = outcome_reply("query", &Outcome::Overloaded).render(None);
        assert!(line.contains("\"ok\":false"));
        assert!(line.contains("\"kind\":\"overloaded\""));
    }
}
