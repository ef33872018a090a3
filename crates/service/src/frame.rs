//! The wire framing layer: bounded line-delimited frames.
//!
//! The service speaks JSON Lines, one request per line as
//! [`twca_api::respond_line`] answers it, but a front end cannot trust
//! its input: a frame longer than the configured cap is discarded
//! *without buffering it* — the reader skips to the next newline and
//! reports how many bytes it dropped, so a hostile client cannot make
//! the server allocate unbounded memory.
//! Invalid UTF-8 is reported in-band with the offset of the first bad
//! byte, so a garbage frame becomes a typed error response rather than
//! a dead connection or a silently mangled request.
//!
//! The reader is *resumable*: partial-frame state lives in the struct,
//! not the call, so an I/O timeout (or any transient error) surfaced
//! mid-frame loses nothing — the next call picks the frame up where
//! the bytes stopped. That is what lets a server arm socket read
//! timeouts for slow-loris reaping without corrupting honest traffic,
//! and what keeps multi-byte UTF-8 sequences split across short reads
//! intact.

use std::io::BufRead;

/// One frame read off a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete, valid-UTF-8 line (without its newline).
    Line(String),
    /// A line longer than the cap; its bytes were discarded.
    Oversized {
        /// How many bytes the frame carried (excluding the newline).
        bytes: usize,
    },
    /// A line that is not valid UTF-8; its bytes were discarded.
    Invalid {
        /// Byte offset of the first invalid byte within the frame.
        offset: usize,
        /// How many bytes the frame carried (excluding the newline).
        bytes: usize,
    },
}

/// One step of the frame reader: at most one underlying read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStep {
    /// A frame completed on this step.
    Frame(Frame),
    /// Bytes were consumed (or the read was interrupted) but no frame
    /// completed yet; call again.
    NeedMore,
    /// End of input, nothing pending.
    Eof,
}

/// A bounded, resumable line reader over any [`BufRead`] source.
#[derive(Debug)]
pub struct FrameReader<R> {
    input: R,
    max_frame_bytes: usize,
    /// Bytes of the in-progress frame, capped at `max_frame_bytes`.
    buf: Vec<u8>,
    /// Bytes of the in-progress frame including any discarded
    /// oversized tail.
    total: usize,
    /// Whether a frame is in progress (distinguishes EOF from a final
    /// unterminated line; an empty in-progress frame counts).
    pending: bool,
}

impl<R: BufRead> FrameReader<R> {
    /// Wraps `input`, capping frames at `max_frame_bytes` bytes.
    pub fn new(input: R, max_frame_bytes: usize) -> FrameReader<R> {
        FrameReader {
            input,
            max_frame_bytes,
            buf: Vec::new(),
            total: 0,
            pending: false,
        }
    }

    /// Performs at most one underlying read and reports what happened.
    /// Timeout-driven front ends loop on this instead of
    /// [`FrameReader::next_frame`] so they can check wall-clock
    /// deadlines between reads even while a frame is trickling in.
    ///
    /// # Errors
    ///
    /// I/O errors of the underlying reader. The partial frame survives
    /// the error: a caller that treats `WouldBlock`/`TimedOut` as a
    /// deadline tick may simply call `step` again and no byte is lost.
    pub fn step(&mut self) -> std::io::Result<FrameStep> {
        let available = match self.input.fill_buf() {
            Ok(available) => available,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                return Ok(FrameStep::NeedMore)
            }
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if !self.pending {
                return Ok(FrameStep::Eof);
            }
            return Ok(FrameStep::Frame(self.take_frame()));
        }
        self.pending = true;
        let (chunk, done) = match available.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, true),
            None => (available.len(), false),
        };
        // Buffer only up to the cap; oversized tails are dropped on
        // the floor but still counted.
        let room = self.max_frame_bytes.saturating_sub(self.buf.len());
        self.buf.extend_from_slice(&available[..chunk.min(room)]);
        self.total += chunk;
        self.input.consume(chunk + usize::from(done));
        if done {
            return Ok(FrameStep::Frame(self.take_frame()));
        }
        Ok(FrameStep::NeedMore)
    }

    /// Completes the pending frame and resets the in-progress state.
    fn take_frame(&mut self) -> Frame {
        let total = std::mem::take(&mut self.total);
        let bytes = std::mem::take(&mut self.buf);
        self.pending = false;
        if total > self.max_frame_bytes {
            return Frame::Oversized { bytes: total };
        }
        match String::from_utf8(bytes) {
            Ok(line) => Frame::Line(line),
            Err(e) => Frame::Invalid {
                offset: e.utf8_error().valid_up_to(),
                bytes: total,
            },
        }
    }

    /// Reads the next frame; `None` at end of input.
    ///
    /// # Errors
    ///
    /// Only I/O errors of the underlying reader; frame content never
    /// fails (oversized and non-UTF-8 frames are reported in-band).
    pub fn next_frame(&mut self) -> std::io::Result<Option<Frame>> {
        loop {
            match self.step()? {
                FrameStep::Frame(frame) => return Ok(Some(frame)),
                FrameStep::Eof => return Ok(None),
                FrameStep::NeedMore => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    fn frames(input: &[u8], cap: usize) -> Vec<Frame> {
        let mut reader = FrameReader::new(input, cap);
        let mut out = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            out.push(frame);
        }
        out
    }

    #[test]
    fn plain_lines_round_trip() {
        assert_eq!(
            frames(b"a\nbb\n\nccc", 10),
            vec![
                Frame::Line("a".into()),
                Frame::Line("bb".into()),
                Frame::Line(String::new()),
                Frame::Line("ccc".into()),
            ]
        );
    }

    #[test]
    fn oversized_frames_are_discarded_not_buffered() {
        let mut input = vec![b'x'; 1000];
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        assert_eq!(
            frames(&input, 8),
            vec![Frame::Oversized { bytes: 1000 }, Frame::Line("ok".into())]
        );
    }

    #[test]
    fn exactly_at_the_cap_is_still_a_line() {
        assert_eq!(
            frames(b"12345678\n", 8),
            vec![Frame::Line("12345678".into())]
        );
        assert_eq!(
            frames(b"123456789\n", 8),
            vec![Frame::Oversized { bytes: 9 }]
        );
    }

    #[test]
    fn invalid_utf8_reports_the_offending_offset() {
        assert_eq!(
            frames(b"ok\xff\xfe{\n", 10),
            vec![Frame::Invalid {
                offset: 2,
                bytes: 5
            }]
        );
        // A frame that *starts* bad reports offset 0.
        assert_eq!(
            frames(b"\xffx\n", 10),
            vec![Frame::Invalid {
                offset: 0,
                bytes: 2
            }]
        );
    }

    /// Yields its bytes one at a time, so every multi-byte UTF-8
    /// sequence is guaranteed to split across reads.
    struct Dribble<'a>(&'a [u8]);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.0.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.0[0];
            self.0 = &self.0[1..];
            Ok(1)
        }
    }

    #[test]
    fn multibyte_utf8_split_across_reads_reassembles() {
        let text = "αβγ → δ\nsecond ✓\n";
        let reader = BufReader::with_capacity(1, Dribble(text.as_bytes()));
        let mut frames = FrameReader::new(reader, 64);
        assert_eq!(
            frames.next_frame().unwrap(),
            Some(Frame::Line("αβγ → δ".into()))
        );
        assert_eq!(
            frames.next_frame().unwrap(),
            Some(Frame::Line("second ✓".into()))
        );
        assert_eq!(frames.next_frame().unwrap(), None);
    }

    /// Fails every other read with a timeout, delivering one byte in
    /// between — the shape of a socket with a read timeout armed
    /// against a dripping client.
    struct FlakyTimeout<'a> {
        data: &'a [u8],
        tick: bool,
    }

    impl Read for FlakyTimeout<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.tick = !self.tick;
            if self.tick {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "injected timeout",
                ));
            }
            if self.data.is_empty() || buf.is_empty() {
                return Ok(0);
            }
            buf[0] = self.data[0];
            self.data = &self.data[1..];
            Ok(1)
        }
    }

    #[test]
    fn timeouts_mid_frame_lose_no_bytes() {
        let reader = BufReader::with_capacity(
            1,
            FlakyTimeout {
                data: "resumed ✓\n".as_bytes(),
                tick: false,
            },
        );
        let mut frames = FrameReader::new(reader, 64);
        let mut timeouts = 0;
        let frame = loop {
            match frames.step() {
                Ok(FrameStep::Frame(frame)) => break frame,
                Ok(FrameStep::NeedMore) => {}
                Ok(FrameStep::Eof) => panic!("EOF before the frame completed"),
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(frame, Frame::Line("resumed ✓".into()));
        assert!(timeouts > 0, "the flaky reader injected timeouts");
    }

    #[test]
    fn a_never_terminated_oversized_frame_stays_bounded() {
        // 1 MiB of garbage against an 8-byte cap: the reader's buffer
        // must not grow past the cap even though `total` counts on.
        let junk = vec![b'j'; 1 << 20];
        let mut reader = FrameReader::new(&junk[..], 8);
        assert_eq!(
            reader.next_frame().unwrap(),
            Some(Frame::Oversized { bytes: 1 << 20 })
        );
        assert!(reader.buf.capacity() <= 64, "buffer stayed near the cap");
    }
}
