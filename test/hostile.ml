(* Shared by the hostile-input corpora ([Wire_corpus],
   [Envelope_corpus]) and the decoder fuzzers. *)

(* words allocated so far, minor and direct-major.  [Gc.counters]
   includes the direct-major words allocated since the last major
   slice; [Gc.quick_stat]'s [major_words] lags them by up to a slice.
   A collection inside a measured window moves the counters by far
   more than a small decode allocates, so a caller measuring one
   starts from an empty minor heap ([Gc.minor]). *)
let words_allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* the words a decoder may allocate on [len] input bytes: bounded by
   what it was given, never by a count or length the input declares *)
let allocation_bound len = float_of_int ((8 * len) + 8192)

let of_hex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0
