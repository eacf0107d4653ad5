//! Wire protocol for `lobster-serve`: length-prefixed binary frames over
//! TCP, little-endian throughout.
//!
//! # Request frame
//!
//! ```text
//! u32 body_len | body
//! body = u8 opcode | payload
//!   PING      (1): (empty)
//!   PUT       (2): u16 klen | key | u32 vlen | value
//!   GET       (3): u16 klen | key
//!   GET_RANGE (4): u16 klen | key | u64 offset | u64 len
//!   STAT      (5): u16 klen | key
//! ```
//!
//! # Response frame
//!
//! ```text
//! u8 status | u64 body_len | body
//!   OK + GET/GET_RANGE: body = payload bytes (streamed in chunks)
//!   OK + STAT:          body = u64 size | [u8; 32] sha256
//!   OK + PING/PUT:      body empty
//!   any error status:   body empty
//! ```
//!
//! A GET/GET_RANGE response's `body_len` is computed from the Blob State
//! *before* streaming, so clients always know how many payload bytes
//! follow; a mid-stream server/client failure surfaces as a short body
//! (connection close), never a corrupt frame. Error statuses are sent as
//! complete frames and — except for [`Status::TooLarge`] on an oversized
//! *request* frame, where the stream can no longer be re-synchronized —
//! leave the connection open for the next request.

use lobster_types::{Error, Result};
use std::io::{Read, Write};

/// Request opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    Ping = 1,
    Put = 2,
    Get = 3,
    GetRange = 4,
    Stat = 5,
}

impl Opcode {
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            1 => Some(Opcode::Ping),
            2 => Some(Opcode::Put),
            3 => Some(Opcode::Get),
            4 => Some(Opcode::GetRange),
            5 => Some(Opcode::Stat),
            _ => None,
        }
    }
}

/// Response status codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    Ok = 0,
    NotFound = 1,
    /// Request frame or value exceeds the server's configured maximum.
    TooLarge = 2,
    /// Malformed request body (short fields, trailing garbage).
    BadFrame = 3,
    UnknownOpcode = 4,
    /// Shed by admission control or the pin-gate; retry later.
    Busy = 5,
    /// Engine-side failure (I/O error, conflict retries exhausted).
    ServerErr = 6,
    /// Server is draining for shutdown.
    ShuttingDown = 7,
}

impl Status {
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::NotFound),
            2 => Some(Status::TooLarge),
            3 => Some(Status::BadFrame),
            4 => Some(Status::UnknownOpcode),
            5 => Some(Status::Busy),
            6 => Some(Status::ServerErr),
            7 => Some(Status::ShuttingDown),
            _ => None,
        }
    }
}

/// Default cap on request frame bodies (opcode + payload). PUT values must
/// fit in a frame; GET responses stream and are not capped by this.
pub const DEFAULT_MAX_FRAME: u32 = 64 << 20;

/// Parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Ping,
    Put { key: Vec<u8>, value: Vec<u8> },
    Get { key: Vec<u8> },
    GetRange { key: Vec<u8>, offset: u64, len: u64 },
    Stat { key: Vec<u8> },
}

/// Encode a request into a length-prefixed frame.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut body = Vec::new();
    match req {
        Request::Ping => body.push(Opcode::Ping as u8),
        Request::Put { key, value } => {
            body.push(Opcode::Put as u8);
            body.extend_from_slice(&(key.len() as u16).to_le_bytes());
            body.extend_from_slice(key);
            body.extend_from_slice(&(value.len() as u32).to_le_bytes());
            body.extend_from_slice(value);
        }
        Request::Get { key } => {
            body.push(Opcode::Get as u8);
            body.extend_from_slice(&(key.len() as u16).to_le_bytes());
            body.extend_from_slice(key);
        }
        Request::GetRange { key, offset, len } => {
            body.push(Opcode::GetRange as u8);
            body.extend_from_slice(&(key.len() as u16).to_le_bytes());
            body.extend_from_slice(key);
            body.extend_from_slice(&offset.to_le_bytes());
            body.extend_from_slice(&len.to_le_bytes());
        }
        Request::Stat { key } => {
            body.push(Opcode::Stat as u8);
            body.extend_from_slice(&(key.len() as u16).to_le_bytes());
            body.extend_from_slice(key);
        }
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Outcome of parsing one complete request body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parsed {
    Req(Request),
    /// Opcode byte not in the protocol — answer [`Status::UnknownOpcode`].
    UnknownOpcode,
    /// Structurally invalid body — answer [`Status::BadFrame`].
    Bad,
}

/// Parse a request body (everything after the `u32` length prefix).
/// Never panics on malformed input — the torture fuzz loop feeds this
/// arbitrary bytes.
pub fn parse_request(body: &[u8]) -> Parsed {
    fn take<'a>(b: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if b.len() < n {
            return None;
        }
        let (head, tail) = b.split_at(n);
        *b = tail;
        Some(head)
    }
    fn take_arr<const N: usize>(b: &mut &[u8]) -> Option<[u8; N]> {
        take(b, N).and_then(|s| s.try_into().ok())
    }
    fn take_u16(b: &mut &[u8]) -> Option<u16> {
        take_arr::<2>(b).map(u16::from_le_bytes)
    }
    fn take_u32(b: &mut &[u8]) -> Option<u32> {
        take_arr::<4>(b).map(u32::from_le_bytes)
    }
    fn take_u64(b: &mut &[u8]) -> Option<u64> {
        take_arr::<8>(b).map(u64::from_le_bytes)
    }

    let mut b = body;
    let Some(&op) = take(&mut b, 1).and_then(<[u8]>::first) else {
        return Parsed::Bad;
    };
    let Some(op) = Opcode::from_u8(op) else {
        return Parsed::UnknownOpcode;
    };
    let parsed = (|| -> Option<Request> {
        let req = match op {
            Opcode::Ping => Request::Ping,
            Opcode::Put => {
                let klen = take_u16(&mut b)? as usize;
                let key = take(&mut b, klen)?.to_vec();
                let vlen = take_u32(&mut b)? as usize;
                let value = take(&mut b, vlen)?.to_vec();
                Request::Put { key, value }
            }
            Opcode::Get => {
                let klen = take_u16(&mut b)? as usize;
                Request::Get {
                    key: take(&mut b, klen)?.to_vec(),
                }
            }
            Opcode::GetRange => {
                let klen = take_u16(&mut b)? as usize;
                let key = take(&mut b, klen)?.to_vec();
                let offset = take_u64(&mut b)?;
                let len = take_u64(&mut b)?;
                Request::GetRange { key, offset, len }
            }
            Opcode::Stat => {
                let klen = take_u16(&mut b)? as usize;
                Request::Stat {
                    key: take(&mut b, klen)?.to_vec(),
                }
            }
        };
        // Trailing garbage after a well-formed request is a framing bug.
        b.is_empty().then_some(req)
    })();
    match parsed {
        Some(req) => Parsed::Req(req),
        None => Parsed::Bad,
    }
}

/// Encode a response header (`status | u64 body_len`).
pub(crate) fn response_header(status: Status, body_len: u64) -> [u8; 9] {
    let mut hdr = [0u8; 9];
    let [status_byte, len_bytes @ ..] = &mut hdr;
    *status_byte = status as u8;
    *len_bytes = body_len.to_le_bytes();
    hdr
}

/// Write a response header on its own (error statuses and empty bodies).
pub fn write_response_header(w: &mut impl Write, status: Status, body_len: u64) -> Result<()> {
    w.write_all(&response_header(status, body_len))
        .map_err(Error::Io)
}

/// Blob metadata returned by STAT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StatReply {
    pub size: u64,
    pub sha256: [u8; 32],
}

/// One parsed response: status plus body (payload for GET, 40-byte
/// metadata for STAT, empty otherwise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: Status,
    pub body: Vec<u8>,
}

impl Response {
    pub fn stat(&self) -> Option<StatReply> {
        if self.status != Status::Ok || self.body.len() != 40 {
            return None;
        }
        let size = u64::from_le_bytes(self.body.get(..8)?.try_into().ok()?);
        let sha256: [u8; 32] = self.body.get(8..40)?.try_into().ok()?;
        Some(StatReply { size, sha256 })
    }
}

/// Read one full response (header + body) from `r`.
pub fn read_response(r: &mut impl Read) -> Result<Response> {
    let mut hdr = [0u8; 9];
    r.read_exact(&mut hdr).map_err(Error::Io)?;
    let [status_byte, len_bytes @ ..] = hdr;
    let Some(status) = Status::from_u8(status_byte) else {
        return Err(Error::Corruption(format!(
            "unknown response status {status_byte}"
        )));
    };
    let body_len = u64::from_le_bytes(len_bytes);
    let mut body = vec![0u8; body_len as usize];
    r.read_exact(&mut body).map_err(Error::Io)?;
    Ok(Response { status, body })
}

/// Blocking protocol client over one TCP connection. Used by the load
/// generator, the smoke tests, and as the reference implementation of the
/// wire format.
pub struct Client {
    stream: std::net::TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client> {
        let stream = std::net::TcpStream::connect(addr).map_err(Error::Io)?;
        stream.set_nodelay(true).map_err(Error::Io)?;
        Ok(Client { stream })
    }

    pub fn from_stream(stream: std::net::TcpStream) -> Client {
        Client { stream }
    }

    pub fn stream(&self) -> &std::net::TcpStream {
        &self.stream
    }

    fn call(&mut self, req: &Request) -> Result<Response> {
        self.stream
            .write_all(&encode_request(req))
            .map_err(Error::Io)?;
        read_response(&mut self.stream)
    }

    pub fn ping(&mut self) -> Result<Status> {
        Ok(self.call(&Request::Ping)?.status)
    }

    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<Status> {
        Ok(self
            .call(&Request::Put {
                key: key.to_vec(),
                value: value.to_vec(),
            })?
            .status)
    }

    pub fn get(&mut self, key: &[u8]) -> Result<Response> {
        self.call(&Request::Get { key: key.to_vec() })
    }

    pub fn get_range(&mut self, key: &[u8], offset: u64, len: u64) -> Result<Response> {
        self.call(&Request::GetRange {
            key: key.to_vec(),
            offset,
            len,
        })
    }

    pub fn stat(&mut self, key: &[u8]) -> Result<Response> {
        self.call(&Request::Stat { key: key.to_vec() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        for req in [
            Request::Ping,
            Request::Put {
                key: b"k".to_vec(),
                value: vec![7; 1000],
            },
            Request::Get {
                key: b"xy".to_vec(),
            },
            Request::GetRange {
                key: b"r".to_vec(),
                offset: 123,
                len: 456,
            },
            Request::Stat { key: vec![] },
        ] {
            let frame = encode_request(&req);
            let body_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(body_len, frame.len() - 4);
            assert_eq!(parse_request(&frame[4..]), Parsed::Req(req));
        }
    }

    #[test]
    fn malformed_bodies_never_panic() {
        assert_eq!(parse_request(&[]), Parsed::Bad);
        assert_eq!(parse_request(&[99]), Parsed::UnknownOpcode);
        assert_eq!(parse_request(&[0]), Parsed::UnknownOpcode);
        // Truncated PUT: klen says 10 but only 2 key bytes follow.
        assert_eq!(parse_request(&[2, 10, 0, b'a', b'b']), Parsed::Bad);
        // Trailing garbage after a valid GET.
        assert_eq!(parse_request(&[3, 1, 0, b'k', 0xFF]), Parsed::Bad);
        // vlen pointing past the end.
        assert_eq!(
            parse_request(&[2, 1, 0, b'k', 0xFF, 0xFF, 0xFF, 0x7F]),
            Parsed::Bad
        );
    }
}
