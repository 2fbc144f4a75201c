//! The in-process oracle: a [`QueryService`] over the very artifact the
//! server loaded. The engine is deterministic and the answer cache never
//! changes a response byte, so every server response must equal the
//! oracle's byte for byte.

use rp_engine::{Publication, QueryService, ServiceConfig, SessionStats};

use crate::gen::{Inputs, Op, COLD_POOL};

/// Expected responses, precomputed for the pools the load loops draw from.
pub struct Oracle {
    service: QueryService,
    hot: Vec<String>,
    cold: Vec<String>,
}

impl Oracle {
    /// Builds the oracle and precomputes the hot set (and, with
    /// `with_cold`, the whole cold pool) so the load loops only compare.
    pub fn new(publication: &Publication, inputs: &Inputs, with_cold: bool) -> Self {
        let mut oracle = Self {
            service: QueryService::from_publication(
                publication,
                ServiceConfig { cache_entries: 0 },
            ),
            hot: Vec::new(),
            cold: Vec::new(),
        };
        oracle.hot = inputs.hot.iter().map(|l| oracle.answer(l)).collect();
        if with_cold {
            oracle.cold = (0..COLD_POOL as u32)
                .map(|i| oracle.answer(&inputs.line(Op::Cold(i))))
                .collect();
        }
        oracle
    }

    /// The response line the service gives to `line`.
    pub fn answer(&self, line: &str) -> String {
        let mut session = SessionStats::default();
        self.service
            .handle_line(line, &mut session)
            .map_or_else(String::new, |r| r.encode())
    }

    /// The precomputed response of a hot or cold `count` (empty otherwise).
    pub fn expected(&self, op: Op) -> &str {
        match op {
            Op::Hot(i) => self.hot.get(i as usize),
            Op::Cold(i) => self.cold.get(i as usize),
            _ => None,
        }
        .map_or("", String::as_str)
    }
}
