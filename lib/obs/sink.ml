type t = {
  mutable n : int;
  mutable closed : bool;
  emit_fn : Event.t -> unit;
  close_fn : unit -> unit;
}

let mk ?(close = fun () -> ()) emit_fn =
  { n = 0; closed = false; emit_fn; close_fn = close }

let emit t ev =
  if not t.closed then begin
    t.n <- t.n + 1;
    t.emit_fn ev
  end

let count t = t.n

let close t =
  if not t.closed then begin
    t.closed <- true;
    t.close_fn ()
  end

let null () = mk (fun _ -> ())
let of_fn ?close f = mk ?close f

let buffer () =
  let buf = ref [] in
  (mk (fun ev -> buf := ev :: !buf), fun () -> List.rev !buf)

let stdout () =
  mk (fun ev ->
      print_string (Event.to_line ev);
      print_newline ())

let file path =
  let oc = open_out path in
  mk
    ~close:(fun () -> close_out oc)
    (fun ev ->
      output_string oc (Event.to_line ev);
      output_char oc '\n')
