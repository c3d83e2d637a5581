let info ?(should_abort = fun () -> false) ?(span = 0) net endpoints ~src msg =
  let bytes = Msg.info_bytes msg in
  let sent = ref 0 in
  (* The fan-out pays one NIC transmission per peer, so simulated time
     passes between sends — a crash event can land mid-loop. Checking the
     abort predicate before each send makes the broadcast genuinely
     partial: peers already messaged keep the update, the rest never see
     it (as opposed to the network dropping the remaining sends, which
     would count as drops). *)
  (try
     Array.iter
       (fun (ep : Endpoint.t) ->
         if should_abort () then raise Exit;
         if ep.Endpoint.node <> src then begin
           Sim.Net.send net ~src ~dst:ep.Endpoint.node ~bytes
             ep.Endpoint.info_mb
             { Msg.info = msg; ack = None; span };
           incr sent
         end)
       endpoints
   with Exit -> ());
  !sent

let info_sync ?(span = 0) net endpoints ~src msg =
  let bytes = Msg.info_bytes msg in
  let ack = Sim.Mailbox.create () in
  let sent = ref 0 in
  Array.iter
    (fun (ep : Endpoint.t) ->
      if ep.Endpoint.node <> src then begin
        Sim.Net.send net ~src ~dst:ep.Endpoint.node ~bytes ep.Endpoint.info_mb
          { Msg.info = msg; ack = Some (src, ack); span };
        incr sent
      end)
    endpoints;
  for _ = 1 to !sent do
    Sim.Mailbox.recv ack
  done;
  !sent

(* Unicasts index the endpoint array by node id (the cluster builds it in
   id order); a destination outside it, or a slot holding another node,
   is a caller bug reported as [invalid_arg what]. *)
let endpoint endpoints dst ~what =
  if dst < 0 || dst >= Array.length endpoints then invalid_arg what;
  let ep = endpoints.(dst) in
  if ep.Endpoint.node <> dst then invalid_arg what;
  ep

let info_to ?(span = 0) net endpoints ~src ~dst msg =
  let ep =
    endpoint endpoints dst
      ~what:"Broadcast.info_to: unknown destination endpoint"
  in
  Sim.Net.send net ~src ~dst ~bytes:(Msg.info_bytes msg) ep.Endpoint.info_mb
    { Msg.info = msg; ack = None; span }

let lookup net endpoints ~src ~home req =
  let ep =
    endpoint endpoints home ~what:"Broadcast.lookup: unknown home endpoint"
  in
  Sim.Net.send net ~src ~dst:home
    ~bytes:(Msg.lookup_request_bytes req)
    ep.Endpoint.lookup_mb req

let sync net endpoints ~src ~peer req =
  let ep =
    endpoint endpoints peer ~what:"Broadcast.sync: unknown peer endpoint"
  in
  Sim.Net.send net ~src ~dst:peer
    ~bytes:(Msg.sync_request_bytes req)
    ep.Endpoint.sync_mb req

let fetch net endpoints ~src ~owner req =
  let ep =
    endpoint endpoints owner ~what:"Broadcast.fetch: unknown owner endpoint"
  in
  Sim.Net.send net ~src ~dst:owner
    ~bytes:(Msg.fetch_request_bytes req)
    ep.Endpoint.data_mb req

let fetch_sync ?(span = 0) net endpoints ~src ~owner ~timeout ~retries ~backoff
    key =
  if timeout <= 0. then invalid_arg "Broadcast.fetch_sync: timeout must be > 0";
  if retries < 0 then invalid_arg "Broadcast.fetch_sync: retries must be >= 0";
  if backoff < 1. then invalid_arg "Broadcast.fetch_sync: backoff must be >= 1";
  let rec attempt n timeout =
    (* A fresh reply mailbox per attempt: a reply to an abandoned attempt
       must not satisfy a later one out of order. *)
    let reply = Sim.Mailbox.create () in
    fetch net endpoints ~src ~owner { Msg.key; requester = src; reply; span };
    match Sim.Mailbox.recv_timeout reply ~timeout with
    | Some r -> (Some r, n)
    | None -> if n < retries then attempt (n + 1) (timeout *. backoff)
              else (None, n)
  in
  attempt 0 timeout
