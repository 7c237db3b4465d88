(* The real `df_compile serve` binary, driven as a child process: a
   socket server with a closed-loop client, and the stdin batch path.
   The socket server runs in its own process so that the harness never
   forks after spawning domains, and so that its caches, heap and peak
   RSS are its own. *)

let now = Unix.gettimeofday

type server = { pid : int; out : in_channel }

let fail fmt = Printf.ksprintf failwith fmt

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* A child whose stdin is an already-closed pipe: it reads EOF at once. *)
let closed_stdin () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  r

(** Start [exe serve --socket sock --shards shards] and wait for its
    "listening" line. *)
let start_server ~exe ~sock ~shards =
  (try Sys.remove sock with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let stdin = closed_stdin () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--shards"; string_of_int shards |]
      stdin w Unix.stderr
  in
  Unix.close stdin;
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match input_line out with
  | line when starts_with ~prefix:"serve: listening" line -> { pid; out }
  | line -> fail "serve did not start: %s" line
  | exception End_of_file -> fail "serve exited before listening"

type drained = { restarts : int; deadline : int; overloaded : int }

(** SIGTERM the server, read its "drained" line and reap it. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let rec lines acc =
    match input_line s.out with
    | l -> lines (l :: acc)
    | exception End_of_file -> acc
  in
  let out = lines [] in
  close_in s.out;
  let _, status = Unix.waitpid [] s.pid in
  if status <> Unix.WEXITED 0 then fail "serve did not exit cleanly";
  match
    List.find_map
      (fun l ->
        try
          Scanf.sscanf l
            "serve: drained ok=%d shard-crash=%d deadline=%d overloaded=%d \
             restarts=%d"
            (fun _ _ deadline overloaded restarts ->
              Some { restarts; deadline; overloaded })
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      out
  with
  | Some d -> d
  | None -> fail "serve printed no drained line"

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(** Closed loop: [clients] connections, each sending its next job only
    after the reply to its previous one.  Returns each job's reply line,
    send time and client-observed latency in seconds. *)
let closed_loop ~sock ~clients (jobs : string array) =
  let n = Array.length jobs in
  let conns =
    Array.init clients (fun _ ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        fd)
  in
  let latency = Array.make n 0.0 and replies = Array.make n "" in
  let sent = Array.make n 0.0 and job = Array.make clients (-1) in
  let pending = Array.init clients (fun _ -> Buffer.create 4096) in
  let next = ref 0 in
  let send c =
    if !next < n then begin
      job.(c) <- !next;
      incr next;
      sent.(job.(c)) <- now ();
      write_all conns.(c) (jobs.(job.(c)) ^ "\n") 0
    end
    else job.(c) <- -1
  in
  Array.iteri (fun c _ -> send c) conns;
  let chunk = Bytes.create 65536 in
  let receive c =
    let k = Unix.read conns.(c) chunk 0 (Bytes.length chunk) in
    if k = 0 then fail "server closed a connection mid-job";
    Buffer.add_subbytes pending.(c) chunk 0 k;
    let s = Buffer.contents pending.(c) in
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
        let j = job.(c) in
        latency.(j) <- now () -. sent.(j);
        replies.(j) <- String.sub s 0 i;
        Buffer.clear pending.(c);
        send c
  in
  while Array.exists (fun j -> j >= 0) job do
    let busy =
      List.filter (fun c -> job.(c) >= 0) (List.init clients Fun.id)
    in
    match Unix.select (List.map (fun c -> conns.(c)) busy) [] [] 120.0 with
    | [], _, _ -> fail "no reply from the server within 120 s"
    | ready, _, _ ->
        List.iter (fun c -> if List.mem conns.(c) ready then receive c) busy
  done;
  Array.iter Unix.close conns;
  (replies, sent, latency)

(** One stdin batch: [exe serve --jobs jobs < input]; returns the output
    lines and the wall time from spawn to exit. *)
let batch ~exe ~jobs ~input =
  let fd = Unix.openfile input [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--jobs"; string_of_int jobs |]
      fd w Unix.stderr
  in
  Unix.close fd;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let wall = now () -. t0 in
  if status <> Unix.WEXITED 0 then fail "serve --jobs %d failed" jobs;
  (out, wall)
