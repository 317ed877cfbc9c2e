//! Reply frames as the load generator sees them: an incremental decoder for
//! the length-prefixed stream, and a lexical classifier for the envelope.
//!
//! The classifier never builds a JSON tree. Replies carry their envelope
//! fields (`v`, `id`, `ok`, `stream`, `index`, `cache`) ahead of the payload
//! (`result` or `error`), and those fields hold plain scalars, so one pass
//! over the prefix reads them and the payload is returned as the exact bytes
//! the server wrote. That keeps the receiver cheap at tens of thousands of
//! frames per second and lets the correctness gate compare raw bytes.

/// Where a reply frame sits in its request's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// The request's last frame (a plain reply, `sweep_done`, or an error).
    Terminal,
    /// One streamed sweep result, tagged with its input index.
    SweepItem {
        /// Index of the α in the request's `alphas`.
        index: usize,
    },
}

/// A classified reply frame, borrowing from the frame text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply<'a> {
    /// The client-chosen request id.
    pub id: u64,
    /// The `ok` flag.
    pub ok: bool,
    /// Terminal or streamed item.
    pub kind: FrameKind,
    /// The cache disposition (`hit`, `miss`, `bypass`), when present.
    pub cache: Option<&'a str>,
    /// The raw `result` (or, when `ok` is false, `error`) value.
    pub payload: &'a str,
    /// The error `code`, when `ok` is false.
    pub error_code: Option<&'a str>,
}

/// Classify one reply frame.
pub fn classify(text: &str) -> Result<Reply<'_>, String> {
    let bad = |what: &str| format!("unexpected reply frame ({what}): {}", preview(text));
    let body = text
        .strip_prefix('{')
        .and_then(|t| t.strip_suffix('}'))
        .ok_or_else(|| bad("not an object"))?;
    let mut rest = body;
    let mut id = None;
    let mut ok = None;
    let mut stream = None;
    let mut index = None;
    let mut cache = None;
    loop {
        let (key, after) = read_string(rest).ok_or_else(|| bad("key"))?;
        let after = after.strip_prefix(':').ok_or_else(|| bad("colon"))?;
        if key == "result" || key == "error" {
            let ok = ok.ok_or_else(|| bad("no ok flag"))?;
            let kind = match (stream, index) {
                (Some("sweep_item"), Some(index)) => FrameKind::SweepItem { index },
                (Some("sweep_item"), None) => return Err(bad("sweep_item without index")),
                _ => FrameKind::Terminal,
            };
            let error_code = if key == "error" {
                Some(
                    after
                        .strip_prefix("{\"code\":")
                        .and_then(read_string)
                        .map(|(code, _)| code)
                        .ok_or_else(|| bad("error code"))?,
                )
            } else {
                None
            };
            return Ok(Reply {
                id: id.ok_or_else(|| bad("no numeric id"))?,
                ok,
                kind,
                cache,
                payload: after,
                error_code,
            });
        }
        let (value, after) = if after.starts_with('"') {
            read_string(after).ok_or_else(|| bad("string value"))?
        } else {
            let end = after.find([',', '}']).unwrap_or(after.len());
            (&after[..end], &after[end..])
        };
        match key {
            "id" => id = value.parse().ok(),
            "ok" => ok = Some(value == "true"),
            "stream" => stream = Some(value),
            "index" => index = value.parse().ok(),
            "cache" => cache = Some(value),
            _ => {}
        }
        rest = after.strip_prefix(',').ok_or_else(|| bad("no payload"))?;
    }
}

/// Read a JSON string at the start of `text` (escapes are skipped, not
/// decoded); returns its raw contents and the text after the closing quote.
fn read_string(text: &str) -> Option<(&str, &str)> {
    let inner = text.strip_prefix('"')?;
    let mut escaped = false;
    for (i, b) in inner.bytes().enumerate() {
        match b {
            _ if escaped => escaped = false,
            b'\\' => escaped = true,
            b'"' => return Some((&inner[..i], &inner[i + 1..])),
            _ => {}
        }
    }
    None
}

fn preview(text: &str) -> String {
    text.chars().take(160).collect()
}

/// Incremental decoder for the `u32` big-endian length-prefixed frame
/// stream: bytes go in as they are read, whole frames come out. Unlike a
/// blocking `read_exact`, a read timeout between calls loses nothing.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
}

impl FrameDecoder {
    /// Append bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame payload, if one is buffered.
    pub fn next_frame(&mut self) -> Option<&[u8]> {
        let pending = &self.buf[self.start..];
        let header: [u8; 4] = pending.get(..4)?.try_into().ok()?;
        let len = u32::from_be_bytes(header) as usize;
        if pending.len() < 4 + len {
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            return None;
        }
        let from = self.start + 4;
        self.start = from + len;
        Some(&self.buf[from..from + len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_plain_hits_and_misses() {
        let hit =
            r#"{"v":2,"id":17,"ok":true,"cache":"hit","result":{"alpha":"1/4","loss":"168/415"}}"#;
        let reply = classify(hit).unwrap();
        assert_eq!(reply.id, 17);
        assert!(reply.ok);
        assert_eq!(reply.kind, FrameKind::Terminal);
        assert_eq!(reply.cache, Some("hit"));
        assert_eq!(reply.payload, r#"{"alpha":"1/4","loss":"168/415"}"#);
        assert_eq!(reply.error_code, None);

        let miss = r#"{"v":2,"id":3,"ok":true,"cache":"miss","result":{"x":"}\"{"}}"#;
        let reply = classify(miss).unwrap();
        assert_eq!(reply.cache, Some("miss"));
        assert_eq!(reply.payload, r#"{"x":"}\"{"}"#);
    }

    #[test]
    fn separates_sweep_items_from_sweep_done() {
        let item = r#"{"v":2,"id":9,"ok":true,"stream":"sweep_item","index":2,"result":{"a":1}}"#;
        let reply = classify(item).unwrap();
        assert_eq!(reply.kind, FrameKind::SweepItem { index: 2 });
        assert_eq!(reply.cache, None);
        let done = r#"{"v":2,"id":9,"ok":true,"stream":"sweep_done","cache":"bypass","result":{"count":3}}"#;
        let reply = classify(done).unwrap();
        assert_eq!(reply.kind, FrameKind::Terminal);
        assert_eq!(reply.cache, Some("bypass"));
        assert_eq!(reply.payload, r#"{"count":3}"#);
    }

    #[test]
    fn reads_error_codes() {
        let err = r#"{"v":2,"id":5,"ok":false,"cache":"miss","error":{"code":"invalid_mechanism","message":"row 0"}}"#;
        let reply = classify(err).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.kind, FrameKind::Terminal);
        assert_eq!(reply.error_code, Some("invalid_mechanism"));
        let plain = r#"{"v":2,"id":6,"ok":false,"error":{"code":"bad_request","message":"x"}}"#;
        assert_eq!(classify(plain).unwrap().cache, None);
    }

    #[test]
    fn rejects_malformed_envelopes() {
        assert!(classify("[1]").is_err());
        assert!(classify(r#"{"v":2,"id":"x","ok":true,"result":{}}"#).is_err());
        assert!(classify(r#"{"v":2,"id":1,"ok":true,"stream":"sweep_item","result":{}}"#).is_err());
        assert!(classify(r#"{"v":2,"id":1,"ok":true}"#).is_err());
    }

    fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_be_bytes());
        out.extend_from_slice(payload);
    }

    #[test]
    fn decoder_reassembles_split_frames() {
        let mut wire = Vec::new();
        push_frame(&mut wire, b"first");
        push_frame(&mut wire, b"");
        push_frame(&mut wire, b"third frame");
        let mut decoder = FrameDecoder::default();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for chunk in wire.chunks(3) {
            decoder.push(chunk);
            while let Some(frame) = decoder.next_frame() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(
            got,
            vec![b"first".to_vec(), Vec::new(), b"third frame".to_vec()]
        );
    }
}
