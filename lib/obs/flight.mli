(** The flight recorder: a fixed-size memory-mapped ring of recent
    trace events that survives [kill -9].

    A recorder is a file of [slots] fixed-width binary frames, mapped
    into the process with [Unix.map_file]. Recording an event writes
    one frame in place — sequence number, timestamp, payload, and a
    CRC32 over the frame body (the same polynomial and little-endian
    framing as the serving journal) — and nothing else: no syscall, no
    allocation, no flush. Because the mapping is shared, the kernel
    owns the dirty pages; when the process is killed, whatever frames
    were written are still in the page cache and reach the file without
    the process's help. Recovery trusts no cursor: {!load} scans every
    slot, keeps the frames whose CRC verifies (a frame torn mid-write
    fails its CRC and is dropped), and orders them by sequence number —
    the last [slots] events before the crash, minus at most the one
    being written.

    Reopening an existing recorder file (same geometry) continues the
    sequence numbering after the highest recovered frame, so a
    [--recover]ed server appends to the same black box it crashed
    with. *)

type t

val default_slots : int
(** 4096 — at 40 bytes per frame, a 160 KiB file. *)

val create : ?slots:int -> string -> (t, string) result
(** [create path] opens (or creates) the recorder at [path] with
    [slots] frames (default {!default_slots}, min 16). An existing file
    with matching magic and geometry is reopened in place — valid
    frames are preserved and numbering continues after them; anything
    else (fresh file, wrong geometry, foreign content) is re-initialized
    to an empty ring. *)

val record : t -> Trace.kind -> time:float -> a:int -> b:int -> unit
(** Overwrite the next slot with this event. Single-writer: the
    recorder is owned by one domain (the serving loop). *)

val next_seq : t -> int
(** The sequence number the next {!record} will use (first is 1). *)

val slots : t -> int

val close : t -> unit
(** Drop the mapping reference. The ring remains recoverable — closing
    is not what persists it; the kernel is. *)

(** {1 Recovery} *)

type event = { seq : int; time : float; kind : Trace.kind; a : int; b : int }

type dump = {
  d_slots : int;  (** ring geometry of the file *)
  d_valid : int;  (** frames whose CRC verified *)
  events : event array;  (** valid frames, ascending sequence order *)
}

val load : string -> (dump, string) result
(** Read and verify a recorder file without mapping it. *)

val to_trace : dump -> Trace.t
(** The recovered events replayed into a fresh {!Trace.t} (in sequence
    order), ready for {!Exporter.chrome_trace}. *)

val crc32 : Bytes.t -> int -> int -> int
(** [crc32 b off len]: CRC-32 (the zlib/PNG polynomial 0xEDB88320) of a
    byte range — the frame checksum here and the record checksum of the
    served write-ahead journal. *)
