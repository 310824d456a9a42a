//! The chunk data-labelling model of Feldmeier, *"A Data Labelling Technique
//! for High-Performance Protocol Processing and Its Consequences"*,
//! SIGCOMM 1993.
//!
//! A **chunk** is a completely self-describing piece of a protocol data unit
//! (PDU): a group of data elements that share identical processing context,
//! labelled by a single header carrying
//!
//! * a [`ChunkType`] — how the payload is processed (`data`, error-detection
//!   control, signalling, …);
//! * `SIZE` — the atomic data-element size in bytes (units that must never be
//!   split by fragmentation, e.g. DES blocks);
//! * `LEN` — the number of elements in the chunk (`LEN = 0` marks the end of
//!   the valid chunks in a packet);
//! * three independent [`FramingTuple`]s `(ID, SN, ST)` — one for the
//!   **connection** (C), one for the **transport PDU** (T) and one for an
//!   **external PDU** (X, e.g. an Application Layer Frame).
//!
//! Because every chunk is self-describing, a receiver can process chunks the
//! moment they arrive — in any order, fragmented any number of times in the
//! network — without reordering or reassembly buffers.
//!
//! The crate provides:
//!
//! * [`chunk`] — the header/payload model;
//! * [`wire`] — the fixed-field wire codec;
//! * [`frag`] — the fragmentation algorithm of Appendix C and the single-step
//!   reassembly algorithm of Appendix D;
//! * [`packet`] — packets as *envelopes* that carry integral numbers of
//!   chunks (§2, Figure 3);
//! * [`compress`] — the invertible header-compression transforms of
//!   Appendix A (implicit `T.ID`, `SIZE` elision, intra-packet deltas).
//!
//! A chunk survives a wire round trip unchanged — the self-description is
//! entirely in the fixed 32-byte header:
//!
//! ```
//! use bytes::Bytes;
//! use chunks_core::chunk::{Chunk, ChunkHeader};
//! use chunks_core::label::FramingTuple;
//! use chunks_core::wire::{decode_chunk, encode_chunk};
//!
//! let chunk = Chunk::new(
//!     ChunkHeader::data(
//!         1,                                  // SIZE: 1-byte elements
//!         4,                                  // LEN: 4 elements
//!         FramingTuple::new(7, 100, false),   // C: connection
//!         FramingTuple::new(7, 0, true),      // T: transport PDU
//!         FramingTuple::new(9, 0, false),     // X: external PDU
//!     ),
//!     Bytes::from_static(b"data"),
//! )
//! .unwrap();
//! let mut wire = Vec::new();
//! encode_chunk(&chunk, &mut wire);
//! let (back, read) = decode_chunk(&wire).unwrap();
//! assert_eq!(read, wire.len());
//! assert_eq!(back, chunk);
//! ```

#![deny(missing_docs)]

pub mod chunk;
pub mod compress;
pub mod error;
pub mod frag;
pub mod label;
pub mod packet;
pub mod wire;

pub use chunk::{Chunk, ChunkHeader};
pub use error::CoreError;
pub use frag::{merge, split, split_to_fit, ReassemblyPool};
pub use label::{ChunkType, FramingTuple, Level};
pub use packet::{chunks_in, pack, spans, unpack, validate, Packet, PacketBuilder};
pub use wire::{decode_chunk_at, decode_chunk_ref, ChunkRef, WIRE_HEADER_LEN};
